//! The full runtime (§III-A, Figure 2 of the paper).
//!
//! A training job runs `TS` steps; the first few are *profiling steps* in
//! which the hill-climbing performance model is fitted, and every later step
//! executes under Strategies 1–4. [`Runtime::prepare`] performs the profiling
//! phase and then builds the schedule table — each key's Strategy 1–2 plan,
//! each operation's planned launch, Strategy-3 candidates and serial time —
//! once; [`Runtime::run_step`] executes one training step from that table
//! and returns a [`StepReport`].

use crate::exec::ExecContext;
use crate::feedback::InterferenceLog;
use crate::hillclimb::{FitOutcome, HillClimbConfig, HillClimbModel};
use crate::measure::{Measurer, OpCatalog};
use crate::plan::PerfModel;
use crate::profiler::ProfilerPool;
use crate::scheduler::Schedule;
use nnrt_graph::{DataflowGraph, OpKind};
use nnrt_manycore::{EngineEvent, KnlCostModel, NoiseModel, SharingMode};
use serde::{Deserialize, Serialize};

/// Which strategies the runtime applies (the paper's ablation of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Strategy 1: per-(kind, shape) optimal intra-op parallelism.
    pub s1: bool,
    /// Strategy 2: one thread count per kind (largest-instance rule).
    pub s2: bool,
    /// Strategy 3: co-run operations into idle cores.
    pub s3: bool,
    /// Strategy 4: hyper-thread co-runs under full-width ops (requires
    /// `s3`).
    pub s4: bool,
    /// Hill-climbing profiler settings.
    pub hillclimb: HillClimbConfig,
    /// Candidate thread counts per ready op for Strategy 3 ("three" in
    /// §III-D, "an empirical number").
    pub candidates: usize,
    /// Maximum |candidate - planned| thread difference before Strategy 2's
    /// count overrides the candidate ("2" in §III-D, "an empirical value").
    pub s2_tolerance: u32,
    /// Among fitting candidates, prefer the one with the fewest threads
    /// (the paper's choice: release cores for more co-running) rather than
    /// the fastest one. The `ablation_candidates` bench flips this.
    pub prefer_fewest_threads: bool,
    /// Measurement-noise seed for the profiling steps.
    pub seed: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            s1: true,
            s2: true,
            s3: true,
            s4: true,
            hillclimb: HillClimbConfig::default(),
            candidates: 3,
            s2_tolerance: 2,
            prefer_fewest_threads: true,
            seed: 0xC0DE,
        }
    }
}

impl RuntimeConfig {
    /// Strategies 1+2 only (Figure 3a).
    pub fn s12_only() -> Self {
        RuntimeConfig {
            s3: false,
            s4: false,
            ..Default::default()
        }
    }

    /// Strategies 1+2+3 (Figure 3b).
    pub fn s123() -> Self {
        RuntimeConfig {
            s4: false,
            ..Default::default()
        }
    }
}

/// The outcome of executing one training step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepReport {
    /// Wall-clock seconds of the step on the simulated machine.
    pub total_secs: f64,
    /// Per-op-kind `(kind, accumulated busy seconds, instance count)`,
    /// sorted by time descending, equal times by kind (the paper's Table VI
    /// rows).
    pub per_kind: Vec<(OpKind, f64, usize)>,
    /// Engine event trace (empty unless trace recording was enabled).
    pub trace: Vec<EngineEvent>,
    /// Per-node timing records: when each op ran, what the policy predicted,
    /// and the interference-free nominal (always collected).
    pub timings: Vec<crate::exec::NodeTiming>,
    /// Number of operations executed.
    pub nodes_executed: usize,
}

impl StepReport {
    /// Accumulated time of one kind, if it ran.
    pub fn kind_time(&self, kind: OpKind) -> Option<f64> {
        self.per_kind
            .iter()
            .find(|&&(k, _, _)| k == kind)
            .map(|&(_, t, _)| t)
    }

    /// The `n` most time-consuming kinds.
    pub fn top_kinds(&self, n: usize) -> &[(OpKind, f64, usize)] {
        &self.per_kind[..n.min(self.per_kind.len())]
    }
}

/// The prepared runtime for one model graph.
///
/// ```
/// use nnrt_graph::{DataflowGraph, OpAux, OpInstance, OpKind, Shape};
/// use nnrt_manycore::KnlCostModel;
/// use nnrt_sched::{Runtime, RuntimeConfig};
///
/// // Two independent convolutions: the runtime profiles them, picks their
/// // thread counts, and co-runs them (Strategy 3).
/// let mut g = DataflowGraph::new();
/// let op = OpInstance::with_aux(
///     OpKind::Conv2DBackpropFilter,
///     Shape::nhwc(32, 8, 8, 384),
///     OpAux::conv(3, 1, 384),
/// );
/// g.add(op.clone(), &[]);
/// g.add(op, &[]);
///
/// let rt = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::default());
/// let report = rt.run_step(&g);
/// assert_eq!(report.nodes_executed, 2);
/// assert!(report.total_secs > 0.0);
/// ```
pub struct Runtime {
    config: RuntimeConfig,
    cost: KnlCostModel,
    catalog: OpCatalog,
    /// The fitted hill-climb model; empty when a custom model was given.
    model: HillClimbModel,
    /// The model set by [`Runtime::prepare_with_model`]; when present,
    /// scheduling uses it instead of `model`.
    custom_model: Option<Box<dyn PerfModel>>,
    /// Built from the catalog, the directing model and `config` when the
    /// runtime is prepared; every step reads it.
    schedule: Schedule,
    record_trace: bool,
    feedback: InterferenceLog,
    /// What the profiling phase achieved: newly fitted keys, keys degraded
    /// to the baseline plan by the budget, and warm-seeding savings.
    outcome: FitOutcome,
}

impl Runtime {
    /// Profiles `graph` (the paper's first few training steps) with the
    /// hill-climbing model and builds the schedule table. This is the
    /// expensive, once-per-model phase; its cost is
    /// `model().profiling_steps` simulated steps.
    pub fn prepare(graph: &DataflowGraph, cost: KnlCostModel, config: RuntimeConfig) -> Self {
        Self::prepare_warm_pooled(graph, cost, config, &[], u32::MAX, ProfilerPool::serial())
    }

    /// Like [`Runtime::prepare`], but warm-started, budgeted and pooled:
    ///
    /// * keys covered by `warm` (curves measured earlier on the same
    ///   machine, e.g. by a previous job via [`HillClimbModel::export`])
    ///   skip profiling and only the remainder is climbed, so
    ///   `model().profiling_steps` reflects only this job's incremental
    ///   profiling cost — zero when every key is already known;
    /// * the incremental profiling phase may spend at most
    ///   `profiling_budget` simulated training steps. Keys that cannot be
    ///   climbed to convergence within the budget are *degraded* instead of
    ///   erroring: they fall back to the TF-performance-guide baseline (the
    ///   framework-default intra-op parallelism, with no co-run candidate
    ///   curves), and are reported by [`Runtime::degraded_keys`]. A budget
    ///   of `0` profiles nothing: the whole graph runs under the baseline
    ///   plan;
    /// * the independent per-key climbs are sharded across `pool`'s
    ///   workers. The fitted model, the schedule table, and every step report
    ///   are **byte-identical for every worker count** (per-key seeded
    ///   measurers; see [`crate::profiler`]) — only the wall-clock time of
    ///   the profiling phase changes.
    pub fn prepare_warm_pooled(
        graph: &DataflowGraph,
        cost: KnlCostModel,
        config: RuntimeConfig,
        warm: &[crate::hillclimb::KeyProfile],
        profiling_budget: u32,
        pool: ProfilerPool,
    ) -> Self {
        Self::prepare_from_catalog(
            OpCatalog::new(graph),
            cost,
            config,
            warm,
            profiling_budget,
            pool,
        )
    }

    /// [`Runtime::prepare_warm_pooled`] over a catalog the caller already
    /// built for the graph (a fleet placement builds one catalog, reads its
    /// keys for the store lookup and hands it over here). The runtime keeps
    /// the catalog: every [`Runtime::run_step`] schedules against it.
    pub fn prepare_from_catalog(
        catalog: OpCatalog,
        cost: KnlCostModel,
        config: RuntimeConfig,
        warm: &[crate::hillclimb::KeyProfile],
        profiling_budget: u32,
        pool: ProfilerPool,
    ) -> Self {
        let mut measurer = Measurer::new(cost.clone(), NoiseModel::default(), config.seed);
        let mut model = HillClimbModel::default();
        model.import(warm);
        let outcome = model.fit_missing_pooled(
            &catalog,
            &mut measurer,
            config.hillclimb,
            profiling_budget,
            &pool,
        );
        let schedule = Schedule::new(&catalog, &model, &config, &cost);
        Runtime {
            config,
            cost,
            catalog,
            model,
            custom_model: None,
            schedule,
            record_trace: false,
            feedback: InterferenceLog::new(),
            outcome,
        }
    }

    /// Builds a runtime around an arbitrary fitted performance model — e.g.
    /// the regression baseline, to reproduce the paper's finding that
    /// "using the most accurate regression model to direct NN model
    /// training" loses ~30%. Nothing is profiled: [`Runtime::model`] stays
    /// empty and `perf_model` directs every step.
    pub fn prepare_with_model(
        graph: &DataflowGraph,
        cost: KnlCostModel,
        config: RuntimeConfig,
        perf_model: Box<dyn PerfModel>,
    ) -> Self {
        let catalog = OpCatalog::new(graph);
        let schedule = Schedule::new(&catalog, perf_model.as_ref(), &config, &cost);
        Runtime {
            config,
            cost,
            catalog,
            model: HillClimbModel::default(),
            custom_model: Some(perf_model),
            schedule,
            record_trace: false,
            feedback: InterferenceLog::new(),
            outcome: FitOutcome::default(),
        }
    }

    /// Enables event-trace recording in step reports (Figure 4).
    pub fn record_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// The fitted hill-climbing model (empty when the runtime was prepared
    /// with [`Runtime::prepare_with_model`]).
    pub fn model(&self) -> &HillClimbModel {
        &self.model
    }

    /// The performance model that directs scheduling.
    fn perf_model(&self) -> &dyn PerfModel {
        self.custom_model.as_deref().unwrap_or(&self.model)
    }

    /// The planned `(threads, mode)` of each key of [`Runtime::catalog`],
    /// in the order of its [`OpCatalog::keys`]: Strategy 1–2's per-key
    /// optimum or per-kind count, or the framework default of one thread
    /// per core where no strategy plans the key.
    pub fn planned(&self) -> &[(u32, SharingMode)] {
        self.schedule.planned()
    }

    /// Keys whose profiling was truncated by the budget passed to
    /// [`Runtime::prepare_warm_pooled`]; they execute under the baseline
    /// plan. Empty for unbudgeted runtimes.
    pub fn degraded_keys(&self) -> &[nnrt_graph::OpKey] {
        &self.outcome.degraded
    }

    /// The full outcome of this runtime's profiling phase: newly fitted
    /// keys, budget-degraded keys, and warm-seeding savings (keys seeded
    /// from a neighbor's curve and the profiling steps that skipped).
    pub fn fit_outcome(&self) -> &FitOutcome {
        &self.outcome
    }

    /// The op catalog.
    pub fn catalog(&self) -> &OpCatalog {
        &self.catalog
    }

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Executes one training step of `graph` under the configured strategies.
    ///
    /// `graph` must be the graph this runtime was prepared on: the step
    /// schedules against the catalog built at preparation, not a fresh one.
    ///
    /// # Panics
    ///
    /// When `graph`'s node count differs from the prepared catalog's.
    pub fn run_step(&self, graph: &DataflowGraph) -> StepReport {
        assert_eq!(
            graph.len(),
            self.catalog.num_nodes(),
            "run_step graph must match the prepared catalog"
        );
        let mut ctx = ExecContext::new(graph, &self.catalog, &self.cost, self.record_trace);
        let model = self.perf_model();
        loop {
            while let Some(decision) =
                self.schedule
                    .next_launch(&ctx, model, &self.config, &self.feedback)
            {
                ctx.launch(decision.launch, decision.predicted, decision.nominal);
            }
            if !ctx.advance() {
                break;
            }
        }
        let report = ctx.finish();
        debug_assert_eq!(report.nodes_executed, graph.len(), "every op must execute");
        report
    }

    /// The interference-feedback log accumulated by
    /// [`Runtime::run_step_adaptive`].
    pub fn feedback(&self) -> &InterferenceLog {
        &self.feedback
    }

    /// Executes one step and then folds its timing records into the
    /// interference log, so later steps avoid co-run pairings that hurt —
    /// the adaptation the paper's §III-D discussion describes. Returns the
    /// report and the number of newly denied kind pairs.
    pub fn run_step_adaptive(&mut self, graph: &DataflowGraph) -> (StepReport, usize) {
        let report = self.run_step(graph);
        let new_denials = self.feedback.observe(graph, &report);
        (report, new_denials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tf_baseline::{TfExecutor, TfExecutorConfig};
    use nnrt_graph::{DataflowGraph, OpAux, OpInstance, OpKind, Shape};

    /// A small ResNet-ish slice: a chain of conv blocks whose backward
    /// produces sibling backprops, plus a fan-out of optimizer updates.
    fn mini_graph() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let mut prev: Option<nnrt_graph::NodeId> = None;
        let mut grads = Vec::new();
        for _ in 0..6 {
            let deps: Vec<_> = prev.into_iter().collect();
            let conv = g.add(
                OpInstance::with_aux(
                    OpKind::Conv2D,
                    Shape::nhwc(32, 8, 8, 384),
                    OpAux::conv(3, 1, 384),
                ),
                &deps,
            );
            let relu = g.add(
                OpInstance::new(OpKind::Relu, Shape::nhwc(32, 8, 8, 384)),
                &[conv],
            );
            prev = Some(relu);
        }
        let top = prev.unwrap();
        let mut grad = top;
        for _ in 0..6 {
            let cbf = g.add(
                OpInstance::with_aux(
                    OpKind::Conv2DBackpropFilter,
                    Shape::nhwc(32, 8, 8, 384),
                    OpAux::conv(3, 1, 384),
                ),
                &[grad],
            );
            let cbi = g.add(
                OpInstance::with_aux(
                    OpKind::Conv2DBackpropInput,
                    Shape::nhwc(32, 8, 8, 384),
                    OpAux::conv(3, 1, 384),
                ),
                &[grad],
            );
            grads.push(cbf);
            grad = cbi;
        }
        for &wg in &grads {
            g.add(
                OpInstance::new(OpKind::ApplyAdam, Shape::vec1(1_327_104)),
                &[wg],
            );
        }
        g
    }

    fn recommendation_time(g: &DataflowGraph) -> f64 {
        let catalog = OpCatalog::new(g);
        let cost = KnlCostModel::knl();
        TfExecutor::new(TfExecutorConfig::recommendation())
            .run_step(g, &catalog, &cost)
            .total_secs
    }

    #[test]
    fn full_runtime_beats_recommendation() {
        let g = mini_graph();
        let baseline = recommendation_time(&g);
        let rt = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::default());
        let ours = rt.run_step(&g).total_secs;
        assert!(
            ours < baseline,
            "runtime ({ours:.4}s) must beat the recommendation ({baseline:.4}s)"
        );
    }

    #[test]
    fn strategies_compose_monotonically_on_corun_heavy_graph() {
        let g = mini_graph();
        let s12 = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::s12_only())
            .run_step(&g)
            .total_secs;
        let s123 = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::s123())
            .run_step(&g)
            .total_secs;
        assert!(
            s123 < s12,
            "S3 must help a graph with sibling backprops: {s123:.4} vs {s12:.4}"
        );
    }

    #[test]
    fn every_node_executes_exactly_once() {
        let g = mini_graph();
        let rt = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::default());
        let report = rt.run_step(&g);
        assert_eq!(report.nodes_executed, g.len());
        let counted: usize = report.per_kind.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(counted, g.len());
    }

    #[test]
    fn trace_recording_is_optional() {
        let g = mini_graph();
        let mut rt = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::default());
        assert!(rt.run_step(&g).trace.is_empty());
        rt.record_trace(true);
        let report = rt.run_step(&g);
        assert_eq!(
            report.trace.len(),
            2 * g.len(),
            "one start + one finish per op"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let g = mini_graph();
        let rt = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::default());
        let a = rt.run_step(&g).total_secs;
        let b = rt.run_step(&g).total_secs;
        assert_eq!(a, b);
    }

    #[test]
    fn report_queries() {
        let g = mini_graph();
        let rt = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::default());
        let report = rt.run_step(&g);
        assert!(report.kind_time(OpKind::Conv2D).unwrap() > 0.0);
        assert!(report.kind_time(OpKind::MaxPool).is_none());
        assert!(report.top_kinds(3).len() == 3);
        assert!(report.top_kinds(100).len() <= report.per_kind.len());
    }
}
