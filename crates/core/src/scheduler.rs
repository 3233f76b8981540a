//! Strategies 3 & 4: the co-run scheduler (§III-D of the paper).
//!
//! Whenever cores idle (an op finished, or the step just started) the
//! scheduler examines the ready operations:
//!
//! * **Strategy 3** — each ready op offers up to three *candidate* thread
//!   counts (its most performant sampled configurations). A candidate may
//!   launch if it (a) fits into the idle cores and (b) is predicted to finish
//!   no later than the ongoing operations (so co-running never stretches the
//!   makespan). Among fitting candidates of an op the scheduler prefers the
//!   one using the *fewest* threads — the paper's example picks 18 threads
//!   over 20 to leave idle cores for further co-runs.
//! * **S2/S3 consistency** — if the chosen candidate's thread count differs
//!   from the Strategy-2 planned count by more than a tolerance (paper: 2),
//!   the planned count is used instead, avoiding disruptive concurrency
//!   changes.
//! * **Strategy 4** — when a full-width op owns all cores, the smallest
//!   ready operations (shortest serial time) ride the second hardware thread
//!   of the busy cores.
//! * Fallback — when the machine is idle and nothing fits "without
//!   decreasing system throughput", the most time-consuming ready op runs.
//!
//! Everything these rules need to know about an operation apart from the
//! step's state — its planned launch, candidates and serial time — sits in
//! the `Schedule` table the runtime builds once when it is prepared; a
//! poll indexes it by the ready node's operation number.

use crate::exec::{ExecContext, Launch};
use crate::feedback::InterferenceLog;
use crate::measure::OpCatalog;
use crate::plan::{self, PerfModel};
use crate::runtime::RuntimeConfig;
use nnrt_graph::{NodeId, OpKey, OpKind};
use nnrt_manycore::{CostModel, KnlCostModel, SharingMode, SlotPreference, WorkProfile};
use std::cell::OnceCell;
use std::ops::Range;

/// One scheduling decision: what to launch next, with its predicted
/// duration and its solo (interference-free) duration.
pub(crate) struct Decision {
    pub launch: Launch,
    pub predicted: f64,
    pub nominal: f64,
}

/// A launch configuration of one operation.
struct Config {
    threads: u32,
    mode: SharingMode,
    /// The performance model's predicted seconds.
    predicted: f64,
    /// The cost model's solo seconds, computed the first time a node of
    /// the operation launches with this configuration and kept for every
    /// later step.
    nominal: OnceCell<f64>,
}

/// What the scheduler needs to know about one operation — a kind, input
/// shape and attributes.
struct OpPlan {
    /// The Strategy-2 planned configuration.
    planned: Config,
    /// Predicted serial (1-thread) time — Strategy 4's "small operation"
    /// metric.
    serial: f64,
    /// Where this operation's Strategy-3 candidates sit in
    /// [`Schedule::candidates`], in the order they are tried.
    candidates: Range<usize>,
}

/// The runtime's schedule table: every answer Strategies 1–4 give about
/// an operation that does not depend on the state of a step.
///
/// The catalog, the model and the configuration are fixed once the runtime
/// is prepared, so the table is built then and every step reads it: each
/// key's planned configuration, and each distinct operation's planned
/// launch, Strategy-3 candidates and serial time — once per operation of
/// the catalog, since nodes running the same operation get the same
/// answers. [`Schedule::next_launch`] makes one step's decisions from it.
pub(crate) struct Schedule {
    /// Per key of the catalog, by its index: the Strategy 1–2 planned
    /// `(threads, mode)`.
    planned: Vec<(u32, SharingMode)>,
    /// Per distinct operation of the catalog, by its index.
    ops: Vec<OpPlan>,
    candidates: Vec<Config>,
}

impl Schedule {
    /// Derives the table for `catalog` from the fitted `model` under
    /// `cfg`'s strategies on the machine `cost` models. Unplanned keys take
    /// the framework default of one thread per core (68 on the paper's
    /// KNL).
    pub fn new(
        catalog: &OpCatalog,
        model: &dyn PerfModel,
        cfg: &RuntimeConfig,
        cost: &KnlCostModel,
    ) -> Self {
        let topo = cost.topology();
        let max_threads = topo.num_cores() * topo.smt_per_core;
        let planned = plan::planned(model, catalog.keys(), cfg, topo.num_cores());
        let mut ops = Vec::with_capacity(catalog.num_ops());
        let mut candidates = Vec::new();
        for op in 0..catalog.num_ops() {
            let key = catalog.op_key(op);
            let profile = catalog.op_profile(op);
            let (planned_threads, mode) = planned[catalog.op_key_index(op)];
            let threads = planned_threads.min(max_threads).max(1);
            let predicted = model
                .predict(key, threads, mode)
                .unwrap_or_else(|| cost.solo_time(profile, threads, mode));
            let serial = model
                .predict(key, 1, SharingMode::Compact)
                .unwrap_or_else(|| cost.solo_time(profile, 1, SharingMode::Compact));
            let mut cands = candidate_set(key, profile, model, cfg, cost, (planned_threads, mode));
            if cfg.prefer_fewest_threads {
                // Fewest threads first: maximize room for further co-runs
                // (the paper picks 18 threads over the faster 20).
                cands.sort_by_key(|&(threads, _, _)| threads);
            } else {
                cands.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
            }
            let start = candidates.len();
            candidates.extend(cands.into_iter().map(|(t, m, p)| Config::new(t, m, p)));
            ops.push(OpPlan {
                planned: Config::new(threads, mode, predicted),
                serial,
                candidates: start..candidates.len(),
            });
        }
        Schedule {
            planned,
            ops,
            candidates,
        }
    }

    /// The planned `(threads, mode)` of each key of the catalog, in the
    /// order of [`OpCatalog::keys`].
    pub fn planned(&self) -> &[(u32, SharingMode)] {
        &self.planned
    }

    fn op(&self, ctx: &ExecContext<'_>, node: NodeId) -> &OpPlan {
        &self.ops[ctx.catalog.op_index(node)]
    }

    /// Picks the next launch, or `None` to wait for a completion. `model`
    /// and `cfg` must be the ones the table was built from. `deny` is the
    /// interference-feedback log (§III-D discussion): a ready op never
    /// co-runs with a kind it has been observed to clash with.
    pub fn next_launch(
        &self,
        ctx: &ExecContext<'_>,
        model: &dyn PerfModel,
        cfg: &RuntimeConfig,
        deny: &InterferenceLog,
    ) -> Option<Decision> {
        let mut ready = ctx.tracker.ready().peekable();
        let first = *ready.peek()?;
        // The kinds running now, needed only to consult a non-empty log.
        let running_kinds: Vec<OpKind> = if deny.is_empty() {
            Vec::new()
        } else {
            ctx.engine
                .running()
                .map(|(_, tag)| ctx.graph.op(NodeId(tag as u32)).kind)
                .collect()
        };
        let allowed =
            |kind: OpKind| -> bool { running_kinds.iter().all(|&r| !deny.is_denied(kind, r)) };

        if !cfg.s3 {
            // Serial discipline (inter-op = 1): FIFO with planned thread counts.
            if ctx.engine.num_running() > 0 {
                return None;
            }
            return Some(self.planned_decision(ctx, first));
        }

        let free = ctx.engine.free_cores();
        if ctx.engine.num_running() == 0 {
            // Idle machine: run the most time-consuming ready op (fallback rule).
            let node = ready
                .max_by(|&a, &b| {
                    let ta = self.op(ctx, a).planned.predicted;
                    let tb = self.op(ctx, b).planned.predicted;
                    ta.partial_cmp(&tb).unwrap()
                })
                .expect("ready non-empty");
            return Some(self.planned_decision(ctx, node));
        }

        // Strategy 3: find a candidate that fits the idle cores and does not
        // outlast the ongoing ops.
        if free > 0 {
            let max_remaining = ctx.predicted_max_remaining().unwrap_or(0.0);
            for node in ctx.tracker.ready() {
                if !allowed(ctx.graph.op(node).kind) {
                    continue;
                }
                for cand in &self.candidates[self.op(ctx, node).candidates.clone()] {
                    if cand.threads <= free && cand.predicted <= max_remaining {
                        return Some(self.decision(ctx, node, cand, SlotPreference::Primary));
                    }
                }
            }
        }

        // Strategy 4: a full-width op owns every core; co-run the smallest ready
        // ops on the spare hardware threads.
        if cfg.s4 && free == 0 {
            let full_width = ctx.engine.topology().num_cores();
            let ht_room = ctx.engine.ht_capacity();
            if ht_room > 0 {
                // Only when an operation genuinely spans every core (the paper:
                // "when the runtime finds an operation using 68 cores") — small
                // co-running ops filling the machine are not an S4 situation.
                let wide_running = ctx.engine.widest_running_cores() >= full_width;
                if wide_running {
                    let node = ctx
                        .tracker
                        .ready()
                        .filter(|&n| allowed(ctx.graph.op(n).kind))
                        .min_by(|&a, &b| {
                            let ta = self.op(ctx, a).serial;
                            let tb = self.op(ctx, b).serial;
                            ta.partial_cmp(&tb).unwrap()
                        })?;
                    let op = ctx.catalog.op_index(node);
                    // `ht_room` never exceeds the core count, so clamping
                    // the planned launch's threads (already clamped to the
                    // machine's contexts) gives the planned count's clamp.
                    let threads = self.ops[op].planned.threads.min(ht_room).max(1);
                    let predicted = model
                        .predict(ctx.catalog.op_key(op), threads, SharingMode::Compact)
                        .unwrap_or(self.ops[op].serial);
                    // Throughput guards: the scavenger must not outlast the
                    // running ops, and the wide op must keep (an estimated)
                    // >= 85% of its throughput under the SMT pairing. A bad
                    // pairing would be "unexpectedly low performance of
                    // individual operations" — exactly what the paper's
                    // discussion says the runtime should avoid.
                    let max_remaining = ctx.predicted_max_remaining().unwrap_or(0.0);
                    let small = ctx.catalog.op_profile(op);
                    let wide_ok = ctx
                        .widest_running_profile()
                        .map(|wide| {
                            let ratio = ctx.cost.params().core_share_ratio(&[
                                (wide.cache_pressure, wide.mem_intensity, 1),
                                (small.cache_pressure, small.mem_intensity, 1),
                            ]);
                            ratio >= 0.85
                        })
                        .unwrap_or(false);
                    if predicted <= max_remaining && wide_ok {
                        let scavenger = Config::new(threads, SharingMode::Compact, predicted);
                        return Some(self.decision(
                            ctx,
                            node,
                            &scavenger,
                            SlotPreference::HyperThread,
                        ));
                    }
                }
            }
        }

        None
    }

    /// Decision for launching `node` with its planned configuration.
    fn planned_decision(&self, ctx: &ExecContext<'_>, node: NodeId) -> Decision {
        self.decision(
            ctx,
            node,
            &self.op(ctx, node).planned,
            SlotPreference::Primary,
        )
    }

    /// Decision for launching `node` with `config` in `slot`.
    fn decision(
        &self,
        ctx: &ExecContext<'_>,
        node: NodeId,
        config: &Config,
        slot: SlotPreference,
    ) -> Decision {
        let nominal = *config.nominal.get_or_init(|| {
            ctx.cost
                .solo_time(ctx.catalog.profile(node), config.threads, config.mode)
        });
        Decision {
            launch: Launch {
                node,
                threads: config.threads,
                mode: config.mode,
                slot,
            },
            predicted: config.predicted,
            nominal,
        }
    }
}

/// The candidate set of the operation with `key` and `profile` whose plan
/// is `planned`, with the S2-consistency override applied, fastest first.
fn candidate_set(
    key: &OpKey,
    profile: &WorkProfile,
    model: &dyn PerfModel,
    cfg: &RuntimeConfig,
    cost: &KnlCostModel,
    (planned_threads, planned_mode): (u32, SharingMode),
) -> Vec<(u32, SharingMode, f64)> {
    if !key.0.is_tunable() {
        // Eigen ops: the framework default is the only option.
        let predicted = model
            .predict(key, planned_threads, planned_mode)
            .unwrap_or_else(|| cost.solo_time(profile, planned_threads, planned_mode));
        return vec![(planned_threads, planned_mode, predicted)];
    }
    let mut cands = model.candidates(key, cfg.candidates);
    if cands.is_empty() {
        let predicted = cost.solo_time(profile, planned_threads, planned_mode);
        return vec![(planned_threads, planned_mode, predicted)];
    }
    for cand in &mut cands {
        if cand.0.abs_diff(planned_threads) > cfg.s2_tolerance {
            // Disruptive concurrency change: fall back to the planned count.
            let t = model
                .predict(key, planned_threads, planned_mode)
                .unwrap_or(cand.2);
            *cand = (planned_threads, planned_mode, t);
        }
    }
    cands.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
    cands.dedup_by_key(|c| c.0);
    cands
}

impl Config {
    fn new(threads: u32, mode: SharingMode, predicted: f64) -> Self {
        Config {
            threads,
            mode,
            predicted,
            nominal: OnceCell::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;
    use crate::hillclimb::{HillClimbConfig, HillClimbModel};
    use crate::measure::{Measurer, OpCatalog};
    use nnrt_graph::{DataflowGraph, OpAux, OpInstance, OpKind, Shape};
    use nnrt_manycore::{KnlCostModel, NoiseModel};

    fn conv(shape: Shape) -> OpInstance {
        let c = shape.channels();
        OpInstance::with_aux(OpKind::Conv2D, shape, OpAux::conv(3, 1, c))
    }

    fn cbf(shape: Shape) -> OpInstance {
        let c = shape.channels();
        OpInstance::with_aux(OpKind::Conv2DBackpropFilter, shape, OpAux::conv(3, 1, c))
    }

    /// Two independent backprop-filter ops (planned ~25 threads each): the
    /// canonical co-run pair with room for both on 68 cores.
    fn pair_graph() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        g.add(cbf(Shape::nhwc(32, 8, 8, 384)), &[]);
        g.add(cbf(Shape::nhwc(32, 8, 8, 384)), &[]);
        g
    }

    fn fitted(g: &DataflowGraph) -> (OpCatalog, HillClimbModel, KnlCostModel) {
        let catalog = OpCatalog::new(g);
        let cost = KnlCostModel::knl();
        let mut m = Measurer::new(cost.clone(), NoiseModel::none(), 3);
        let model = HillClimbModel::fit(&catalog, &mut m, HillClimbConfig::default());
        (catalog, model, cost)
    }

    #[test]
    fn serial_discipline_launches_one_at_a_time() {
        let g = pair_graph();
        let (catalog, model, cost) = fitted(&g);
        let cfg = RuntimeConfig::s12_only();
        let deny = InterferenceLog::new();
        let mut ctx = ExecContext::new(&g, &catalog, &cost, false);
        let schedule = Schedule::new(&catalog, &model, &cfg, &cost);
        let next = |ctx: &ExecContext<'_>| schedule.next_launch(ctx, &model, &cfg, &deny);
        let d1 = next(&ctx).expect("first launch");
        ctx.launch(d1.launch, d1.predicted, d1.nominal);
        assert!(next(&ctx).is_none(), "serial mode must not co-run");
        assert!(ctx.advance());
        assert!(next(&ctx).is_some());
    }

    #[test]
    fn corun_launches_a_fitting_sibling() {
        let g = pair_graph();
        let (catalog, model, cost) = fitted(&g);
        let cfg = RuntimeConfig::default();
        let deny = InterferenceLog::new();
        let mut ctx = ExecContext::new(&g, &catalog, &cost, false);
        let schedule = Schedule::new(&catalog, &model, &cfg, &cost);
        let next = |ctx: &ExecContext<'_>| schedule.next_launch(ctx, &model, &cfg, &deny);
        // Idle machine: most time-consuming op launches with planned threads.
        let d1 = next(&ctx).expect("first");
        let p1 = d1.launch.threads;
        assert!(
            p1 < 68,
            "planned conv threads should leave idle cores, got {p1}"
        );
        let pred = d1.predicted;
        ctx.launch(d1.launch, pred, d1.nominal);
        // The sibling fits into the leftover cores (same predicted time).
        let d2 = next(&ctx).expect("sibling co-runs");
        assert!(d2.launch.threads <= 68 - p1);
        assert_eq!(d2.launch.slot, SlotPreference::Primary);
    }

    #[test]
    fn corun_respects_throughput_condition() {
        // A short op running + a much longer ready op: the long op must NOT
        // co-run (it would outlast the ongoing one).
        let mut g = DataflowGraph::new();
        g.add(conv(Shape::nhwc(4, 8, 8, 64)), &[]); // tiny
        g.add(conv(Shape::nhwc(64, 17, 17, 512)), &[]); // huge
        let (catalog, model, cost) = fitted(&g);
        let cfg = RuntimeConfig::default();
        let deny = InterferenceLog::new();
        let mut ctx = ExecContext::new(&g, &catalog, &cost, false);
        let schedule = Schedule::new(&catalog, &model, &cfg, &cost);
        let next = |ctx: &ExecContext<'_>| schedule.next_launch(ctx, &model, &cfg, &deny);
        // Idle-machine rule: the HUGE op launches first (most time-consuming).
        let d1 = next(&ctx).expect("first");
        assert_eq!(
            ctx.graph.op(d1.launch.node).shape,
            Shape::nhwc(64, 17, 17, 512)
        );
        let pred = d1.predicted;
        ctx.launch(d1.launch, pred, d1.nominal);
        // The tiny op fits and finishes earlier: it may co-run.
        if let Some(d2) = next(&ctx) {
            assert!(d2.predicted <= pred);
        }
    }

    #[test]
    fn s2_tolerance_overrides_distant_candidates() {
        let g = pair_graph();
        let (catalog, model, cost) = fitted(&g);
        let ctx = ExecContext::new(&g, &catalog, &cost, false);
        let tight = RuntimeConfig {
            s2_tolerance: 0,
            ..Default::default()
        };
        let deny = InterferenceLog::new();
        let schedule = Schedule::new(&catalog, &model, &tight, &cost);
        let d = schedule
            .next_launch(&ctx, &model, &tight, &deny)
            .expect("launch");
        let key = nnrt_graph::op_key(
            ctx.graph.op(d.launch.node).kind,
            &ctx.graph.op(d.launch.node).shape,
        );
        let (planned, _) = schedule.planned()[catalog.keys().binary_search(&key).unwrap()];
        assert_eq!(
            d.launch.threads, planned,
            "tolerance 0 must pin to the plan"
        );
    }

    #[test]
    fn eigen_ops_keep_the_framework_default() {
        let mut g = DataflowGraph::new();
        g.add(
            OpInstance::new(OpKind::Tile, Shape::nhwc(32, 32, 32, 64)),
            &[],
        );
        let (catalog, model, cost) = fitted(&g);
        let ctx = ExecContext::new(&g, &catalog, &cost, false);
        let cfg = RuntimeConfig::default();
        let deny = InterferenceLog::new();
        let d = Schedule::new(&catalog, &model, &cfg, &cost)
            .next_launch(&ctx, &model, &cfg, &deny)
            .expect("launch");
        assert_eq!(d.launch.threads, 68, "non-tunable kinds run at the default");
    }

    #[test]
    fn nothing_ready_means_no_launch() {
        let mut g = DataflowGraph::new();
        let a = g.add(conv(Shape::nhwc(8, 8, 8, 64)), &[]);
        g.add(conv(Shape::nhwc(8, 8, 8, 64)), &[a]); // depends on a
        let (catalog, model, cost) = fitted(&g);
        let cfg = RuntimeConfig::default();
        let deny = InterferenceLog::new();
        let mut ctx = ExecContext::new(&g, &catalog, &cost, false);
        let schedule = Schedule::new(&catalog, &model, &cfg, &cost);
        let next = |ctx: &ExecContext<'_>| schedule.next_launch(ctx, &model, &cfg, &deny);
        let d = next(&ctx).unwrap();
        ctx.launch(d.launch, d.predicted, d.nominal);
        // The successor is not ready while its predecessor runs.
        assert!(next(&ctx).is_none());
    }

    #[test]
    fn s4_triggers_only_under_a_full_width_op() {
        // A full-width Eigen op + small tunable ops ready: Strategy 4 may
        // place a scavenger on hyper-thread slots.
        let mut g = DataflowGraph::new();
        g.add(
            OpInstance::new(OpKind::Tile, Shape::nhwc(64, 64, 64, 64)),
            &[],
        );
        for _ in 0..3 {
            g.add(conv(Shape::nhwc(2, 4, 4, 16)), &[]);
        }
        let (catalog, model, cost) = fitted(&g);
        let cfg = RuntimeConfig::default();
        let deny = InterferenceLog::new();
        let mut ctx = ExecContext::new(&g, &catalog, &cost, false);
        let schedule = Schedule::new(&catalog, &model, &cfg, &cost);
        let next = |ctx: &ExecContext<'_>| schedule.next_launch(ctx, &model, &cfg, &deny);
        // Launch the wide op (it is the most time-consuming).
        let d = next(&ctx).unwrap();
        assert_eq!(d.launch.threads, 68);
        ctx.launch(d.launch, d.predicted, d.nominal);
        // Free cores = 0; any further launch must be an HT scavenger.
        if let Some(d2) = next(&ctx) {
            assert_eq!(d2.launch.slot, SlotPreference::HyperThread);
        }
        // With S4 disabled, nothing launches at all.
        let no_s4 = RuntimeConfig::s123();
        let mut ctx2 = ExecContext::new(&g, &catalog, &cost, false);
        let schedule = Schedule::new(&catalog, &model, &no_s4, &cost);
        let next = |ctx: &ExecContext<'_>| schedule.next_launch(ctx, &model, &no_s4, &deny);
        let d = next(&ctx2).unwrap();
        ctx2.launch(d.launch, d.predicted, d.nominal);
        assert!(next(&ctx2).is_none());
    }
}
