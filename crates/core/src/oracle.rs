//! An offline scheduling oracle: an upper bound for the online strategies.
//!
//! The paper's Strategies 3–4 decide greedily, online, from noisy
//! predictions. How much is left on the table? This oracle cheats on every
//! axis the runtime cannot: it knows the *true* cost model, searches each
//! op's exact best thread count, and packs ready operations
//! longest-processing-time-first into core partitions sized so everything
//! ready can run at once. The gap between the runtime and this bound is the
//! honest price of being online (reported by the `ablation_oracle` bench).

use crate::exec::{ExecContext, Launch};
use crate::measure::OpCatalog;
use crate::runtime::StepReport;
use nnrt_graph::{DataflowGraph, NodeId};
use nnrt_manycore::{CostModel, KnlCostModel, SharingMode, SlotPreference};

/// The oracle executor.
#[derive(Debug, Clone, Default)]
pub struct OracleScheduler;

impl OracleScheduler {
    /// The oracle: it co-runs as many ready ops as there are free cores.
    pub fn new() -> Self {
        OracleScheduler
    }

    /// Runs one step of `graph` with full knowledge of `cost`.
    pub fn run_step(
        &self,
        graph: &DataflowGraph,
        catalog: &OpCatalog,
        cost: &KnlCostModel,
    ) -> StepReport {
        let ncores = cost.topology().num_cores();
        let mut ctx = ExecContext::new(graph, catalog, cost, false);
        loop {
            // Gather the ready set and pack it LPT-first.
            let mut ready: Vec<NodeId> = ctx.tracker.ready().collect();
            if !ready.is_empty() {
                // True best times (the oracle's cheat #1).
                let mut best: Vec<(NodeId, u32, SharingMode, f64)> = ready
                    .drain(..)
                    .map(|n| {
                        let (p, mode, t) = cost.optimal(catalog.profile(n), ncores);
                        (n, p, mode, t)
                    })
                    .collect();
                best.sort_by(|a, b| b.3.partial_cmp(&a.3).unwrap());
                for (n, p, mode, t) in best {
                    let free = ctx.engine.free_cores();
                    if free == 0 {
                        break;
                    }
                    // Shrink to fit, preferring the true best count when it
                    // fits (cheat #2: exact times at every width are known).
                    let threads = p.min(free);
                    let t = if threads == p {
                        t
                    } else {
                        cost.solo_time(catalog.profile(n), threads, mode)
                    };
                    ctx.launch(
                        Launch {
                            node: n,
                            threads,
                            mode,
                            slot: SlotPreference::Primary,
                        },
                        t,
                        t,
                    );
                }
            }
            if !ctx.advance() {
                break;
            }
        }
        ctx.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};
    use crate::tf_baseline::{TfExecutor, TfExecutorConfig};

    #[test]
    fn oracle_executes_everything_and_beats_the_recommendation() {
        let spec = nnrt_models::dcgan(16);
        let catalog = OpCatalog::new(&spec.graph);
        let cost = KnlCostModel::knl();
        let oracle = OracleScheduler::new().run_step(&spec.graph, &catalog, &cost);
        assert_eq!(oracle.nodes_executed, spec.graph.len());
        let rec = TfExecutor::new(TfExecutorConfig::recommendation()).run_step(
            &spec.graph,
            &catalog,
            &cost,
        );
        assert!(oracle.total_secs < rec.total_secs);
    }

    #[test]
    fn online_runtime_is_within_a_factor_of_the_oracle() {
        // The honest gap: the online strategies should capture a large share
        // of what an omniscient packer achieves.
        let spec = nnrt_models::dcgan(16);
        let catalog = OpCatalog::new(&spec.graph);
        let cost = KnlCostModel::knl();
        let oracle = OracleScheduler::new().run_step(&spec.graph, &catalog, &cost);
        let ours =
            Runtime::prepare(&spec.graph, cost, RuntimeConfig::default()).run_step(&spec.graph);
        assert!(
            ours.total_secs < oracle.total_secs * 2.0,
            "online {} vs oracle {}",
            ours.total_secs,
            oracle.total_secs
        );
        // And the oracle is, as it must be, at least as good.
        assert!(oracle.total_secs <= ours.total_secs * 1.001);
    }
}
