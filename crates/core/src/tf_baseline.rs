//! The TensorFlow-style baseline executor.
//!
//! FIFO dispatch of ready operations into an inter-op pool of fixed size;
//! every operation runs with the same user-configured intra-op parallelism,
//! placed the way the OS would place an unpinned OpenMP team (least-loaded
//! cores, sharing freely). The paper's *recommendation* baseline is
//! `inter = 1, intra = 68`; *manual optimization* exhaustively grids both.

use crate::exec::{ExecContext, Launch};
use crate::measure::OpCatalog;
use crate::runtime::StepReport;
use nnrt_graph::DataflowGraph;
use nnrt_manycore::{CostModel, KnlCostModel, SharingMode, SlotPreference};
use serde::{Deserialize, Serialize};

/// Uniform parallelism settings, as TensorFlow exposes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TfExecutorConfig {
    /// Maximum concurrently running operations (session inter-op threads).
    pub inter_op: u32,
    /// Threads per operation (session intra-op threads).
    pub intra_op: u32,
}

impl TfExecutorConfig {
    /// The TensorFlow performance guide's recommendation on the paper's KNL:
    /// one op at a time, 68 threads (one per physical core).
    pub fn recommendation() -> Self {
        TfExecutorConfig {
            inter_op: 1,
            intra_op: 68,
        }
    }
}

/// The baseline executor.
#[derive(Debug, Clone)]
pub struct TfExecutor {
    cfg: TfExecutorConfig,
    record_trace: bool,
}

impl TfExecutor {
    /// Executor with the given uniform parallelism.
    pub fn new(cfg: TfExecutorConfig) -> Self {
        TfExecutor {
            cfg,
            record_trace: false,
        }
    }

    /// Enables event-trace recording in the reports.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Runs one training step of `graph`.
    pub fn run_step(
        &self,
        graph: &DataflowGraph,
        catalog: &OpCatalog,
        cost: &KnlCostModel,
    ) -> StepReport {
        assert!(self.cfg.inter_op >= 1, "inter_op must be >= 1");
        assert!(self.cfg.intra_op >= 1, "intra_op must be >= 1");
        let mut ctx = ExecContext::new(graph, catalog, cost, self.record_trace);
        loop {
            // Fill the inter-op pool FIFO. If every hardware context is held,
            // further pool slots queue until a completion (approximating the
            // OS time-slicing an oversubscribed machine).
            while ctx.engine.num_running() < self.cfg.inter_op as usize
                && ctx.engine.free_contexts() > 0
            {
                let Some(node) = ctx.tracker.ready().next() else {
                    break;
                };
                let launch = Launch {
                    node,
                    threads: self.cfg.intra_op,
                    mode: SharingMode::Compact,
                    slot: SlotPreference::Shared,
                };
                let profile = *ctx.catalog.profile(node);
                let nominal = cost.solo_time(&profile, self.cfg.intra_op, SharingMode::Compact);
                ctx.launch(launch, nominal, nominal);
            }
            if !ctx.advance() {
                break;
            }
        }
        ctx.finish()
    }
}

/// Exhaustive manual tuning: grids inter-op and intra-op parallelism (the
/// values the paper's manual optimization explores), returning the best
/// configuration and its report. This is the "not scalable" baseline the
/// paper compares against — every cell costs a full training-step run.
pub fn manual_optimization(
    graph: &DataflowGraph,
    catalog: &OpCatalog,
    cost: &KnlCostModel,
) -> (TfExecutorConfig, StepReport) {
    let inters = [1u32, 2, 4];
    let intras = [2u32, 4, 8, 16, 34, 68, 136];
    let mut best: Option<(TfExecutorConfig, StepReport)> = None;
    for inter in inters {
        for intra in intras {
            let cfg = TfExecutorConfig {
                inter_op: inter,
                intra_op: intra,
            };
            let report = TfExecutor::new(cfg).run_step(graph, catalog, cost);
            if best
                .as_ref()
                .is_none_or(|(_, b)| report.total_secs < b.total_secs)
            {
                best = Some((cfg, report));
            }
        }
    }
    best.expect("non-empty grid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_graph::{OpAux, OpInstance, OpKind, Shape};

    fn chain_graph(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let mut prev = None;
        for _ in 0..n {
            let deps: Vec<_> = prev.into_iter().collect();
            let id = g.add(
                OpInstance::with_aux(
                    OpKind::Conv2D,
                    Shape::nhwc(32, 8, 8, 384),
                    OpAux::conv(3, 1, 384),
                ),
                &deps,
            );
            prev = Some(id);
        }
        g
    }

    fn wide_graph(n: usize) -> DataflowGraph {
        let mut g = DataflowGraph::new();
        for _ in 0..n {
            g.add(
                OpInstance::with_aux(
                    OpKind::Conv2D,
                    Shape::nhwc(32, 8, 8, 384),
                    OpAux::conv(3, 1, 384),
                ),
                &[],
            );
        }
        g
    }

    #[test]
    fn serial_chain_time_is_sum_of_ops() {
        let g = chain_graph(4);
        let catalog = OpCatalog::new(&g);
        let cost = KnlCostModel::knl();
        let report =
            TfExecutor::new(TfExecutorConfig::recommendation()).run_step(&g, &catalog, &cost);
        assert_eq!(report.nodes_executed, 4);
        let one = cost.solo_time(
            catalog.profile(nnrt_graph::NodeId(0)),
            68,
            SharingMode::Compact,
        );
        assert!((report.total_secs - 4.0 * one).abs() / (4.0 * one) < 1e-9);
    }

    #[test]
    fn inter_op_2_overlaps_independent_ops() {
        let g = wide_graph(4);
        let catalog = OpCatalog::new(&g);
        let cost = KnlCostModel::knl();
        let serial = TfExecutor::new(TfExecutorConfig {
            inter_op: 1,
            intra_op: 34,
        })
        .run_step(&g, &catalog, &cost);
        let overlapped = TfExecutor::new(TfExecutorConfig {
            inter_op: 2,
            intra_op: 34,
        })
        .run_step(&g, &catalog, &cost);
        assert!(
            overlapped.total_secs < serial.total_secs * 0.75,
            "two 34-thread ops should overlap on 68 cores: {} vs {}",
            overlapped.total_secs,
            serial.total_secs
        );
    }

    #[test]
    fn oversubscribed_intra_is_slower() {
        let g = chain_graph(3);
        let catalog = OpCatalog::new(&g);
        let cost = KnlCostModel::knl();
        let t68 = TfExecutor::new(TfExecutorConfig {
            inter_op: 1,
            intra_op: 68,
        })
        .run_step(&g, &catalog, &cost)
        .total_secs;
        let t136 = TfExecutor::new(TfExecutorConfig {
            inter_op: 1,
            intra_op: 136,
        })
        .run_step(&g, &catalog, &cost)
        .total_secs;
        assert!(t136 > t68 * 1.1, "136 threads should lose: {t136} vs {t68}");
    }

    #[test]
    fn per_kind_accounting_sums_up() {
        let g = chain_graph(5);
        let catalog = OpCatalog::new(&g);
        let cost = KnlCostModel::knl();
        let report =
            TfExecutor::new(TfExecutorConfig::recommendation()).run_step(&g, &catalog, &cost);
        assert_eq!(report.per_kind.len(), 1);
        let (kind, total, count) = report.per_kind[0];
        assert_eq!(kind, OpKind::Conv2D);
        assert_eq!(count, 5);
        assert!((total - report.total_secs).abs() < 1e-9);
    }

    #[test]
    fn manual_optimization_beats_or_ties_recommendation() {
        let g = wide_graph(6);
        let catalog = OpCatalog::new(&g);
        let cost = KnlCostModel::knl();
        let rec = TfExecutor::new(TfExecutorConfig::recommendation()).run_step(&g, &catalog, &cost);
        let (best_cfg, best) = manual_optimization(&g, &catalog, &cost);
        assert!(best.total_secs <= rec.total_secs);
        // For a wide graph of mid-sized convs, co-running must win.
        assert!(
            best_cfg.inter_op > 1,
            "manual tuning should pick inter_op > 1"
        );
    }

    #[test]
    fn empty_graph_is_instant() {
        let g = DataflowGraph::new();
        let catalog = OpCatalog::new(&g);
        let cost = KnlCostModel::knl();
        let report =
            TfExecutor::new(TfExecutorConfig::recommendation()).run_step(&g, &catalog, &cost);
        assert_eq!(report.total_secs, 0.0);
        assert_eq!(report.nodes_executed, 0);
    }
}
