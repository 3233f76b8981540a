//! Interference feedback across training steps.
//!
//! The paper's §III-D discussion: the performance model predicts solo times
//! and "does not capture performance interference between operations when
//! co-running them. ... Our runtime can record such cases and avoid
//! co-running such operations in the future train steps." This module is
//! that mechanism: after each step, operations that ran far slower than
//! predicted are paired with the op kinds they overlapped, and those pairs
//! are denied future co-runs.

use crate::exec::NodeTiming;
use crate::runtime::StepReport;
use nnrt_graph::{DataflowGraph, OpKind};
use std::collections::HashSet;

/// An op counts as victimized when its actual duration exceeds
/// `SLOWDOWN_THRESHOLD ×` its predicted duration. 2.5 is deliberately
/// conservative: moderate interference is the expected price of co-running
/// (Table III accepts 17-25% losses), and the paper reports that in practice
/// it did "not find significant performance slowdown in individual
/// operations when co-running them" — the log is for pathological pairings
/// only.
const SLOWDOWN_THRESHOLD: f64 = 2.5;

/// Record of co-run pairings that hurt.
#[derive(Debug, Clone, Default)]
pub struct InterferenceLog {
    denied: HashSet<(OpKind, OpKind)>,
}

fn pair(a: OpKind, b: OpKind) -> (OpKind, OpKind) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl InterferenceLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether co-running kinds `a` and `b` has been denied.
    pub(crate) fn is_denied(&self, a: OpKind, b: OpKind) -> bool {
        self.denied.contains(&pair(a, b))
    }

    /// Whether nothing has been denied yet.
    pub fn is_empty(&self) -> bool {
        self.denied.is_empty()
    }

    /// Scans a step's timing records; for every op whose actual duration
    /// blew past its prediction, denies its kind against the kinds it
    /// overlapped. Returns the number of *new* denials.
    pub(crate) fn observe(&mut self, graph: &DataflowGraph, report: &StepReport) -> usize {
        let mut added = 0;
        let timings: &[NodeTiming] = &report.timings;
        for (i, t) in timings.iter().enumerate() {
            if t.actual() <= t.predicted * SLOWDOWN_THRESHOLD {
                continue;
            }
            let victim = graph.op(nnrt_graph::NodeId(t.node)).kind;
            for (j, other) in timings.iter().enumerate() {
                if i == j || !t.overlaps(other) {
                    continue;
                }
                let culprit = graph.op(nnrt_graph::NodeId(other.node)).kind;
                if victim == culprit {
                    // Same-kind pairs stay allowed: denying them would
                    // outlaw the sibling-backprop co-runs that motivate
                    // Strategy 3 in the first place.
                    continue;
                }
                if self.denied.insert(pair(victim, culprit)) {
                    added += 1;
                }
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::NodeTiming;
    use nnrt_graph::{OpInstance, Shape};

    fn report_with(timings: Vec<NodeTiming>) -> StepReport {
        StepReport {
            total_secs: 1.0,
            per_kind: Vec::new(),
            trace: Vec::new(),
            timings,
            nodes_executed: 0,
        }
    }

    fn two_kind_graph() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        g.add(
            OpInstance::new(OpKind::Conv2D, Shape::nhwc(1, 4, 4, 8)),
            &[],
        );
        g.add(OpInstance::new(OpKind::Tile, Shape::vec1(64)), &[]);
        g
    }

    fn timing(node: u32, start: f64, finish: f64, predicted: f64) -> NodeTiming {
        NodeTiming {
            node,
            start,
            finish,
            predicted,
            nominal: predicted,
        }
    }

    #[test]
    fn overlapping_slowdown_denies_the_pair() {
        let g = two_kind_graph();
        let mut log = InterferenceLog::new();
        // Node 0 predicted 1.0s but took 3.0s while node 1 overlapped.
        let report = report_with(vec![timing(0, 0.0, 3.0, 1.0), timing(1, 0.5, 1.5, 1.0)]);
        assert_eq!(log.observe(&g, &report), 1);
        assert!(log.is_denied(OpKind::Conv2D, OpKind::Tile));
        assert!(
            log.is_denied(OpKind::Tile, OpKind::Conv2D),
            "denial is symmetric"
        );
        // Observing again adds nothing.
        assert_eq!(log.observe(&g, &report), 0);
    }

    #[test]
    fn mild_slowdowns_are_tolerated() {
        let g = two_kind_graph();
        let mut log = InterferenceLog::new();
        let report = report_with(vec![
            timing(0, 0.0, 1.2, 1.0), // 20% over: within the threshold
            timing(1, 0.5, 1.5, 1.0),
        ]);
        assert_eq!(log.observe(&g, &report), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn non_overlapping_ops_are_not_blamed() {
        let g = two_kind_graph();
        let mut log = InterferenceLog::new();
        let report = report_with(vec![
            timing(0, 0.0, 2.0, 1.0),
            timing(1, 3.0, 4.0, 1.0), // disjoint in time
        ]);
        assert_eq!(log.observe(&g, &report), 0);
    }

    #[test]
    fn same_kind_pairs_stay_allowed() {
        let mut g = DataflowGraph::new();
        g.add(
            OpInstance::new(OpKind::Conv2D, Shape::nhwc(1, 4, 4, 8)),
            &[],
        );
        g.add(
            OpInstance::new(OpKind::Conv2D, Shape::nhwc(1, 4, 4, 8)),
            &[],
        );
        let mut log = InterferenceLog::new();
        let report = report_with(vec![timing(0, 0.0, 2.0, 1.0), timing(1, 0.0, 2.0, 1.0)]);
        assert_eq!(log.observe(&g, &report), 0);
        assert!(!log.is_denied(OpKind::Conv2D, OpKind::Conv2D));
    }
}
