//! Co-running statistics from engine traces (the paper's Figure 4).
//!
//! Whenever an operation launches or finishes — an *event* — the trace
//! records how many operations are running. Figure 4 plots that series for
//! 6000 events from the middle of a step and reports the average.

use nnrt_manycore::EngineEvent;
use serde::{Deserialize, Serialize};

/// Summary of co-running behaviour over a step's event trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorunStats {
    /// Number of events (launches + completions).
    pub events: usize,
    /// Mean number of co-running operations over events.
    pub avg_corunning: f64,
    /// Maximum simultaneously running operations.
    pub max_corunning: u32,
}

impl CorunStats {
    /// Computes stats over the whole trace.
    pub(crate) fn from_trace(trace: &[EngineEvent]) -> Self {
        if trace.is_empty() {
            return CorunStats {
                events: 0,
                avg_corunning: 0.0,
                max_corunning: 0,
            };
        }
        let sum: u64 = trace.iter().map(|e| e.corunning as u64).sum();
        CorunStats {
            events: trace.len(),
            avg_corunning: sum as f64 / trace.len() as f64,
            max_corunning: trace.iter().map(|e| e.corunning).max().unwrap_or(0),
        }
    }

    /// Stats over a window of `n` events taken from the middle of the trace
    /// (the paper presents "6000 events ... in the middle of one step").
    pub fn middle_window(trace: &[EngineEvent], n: usize) -> Self {
        if trace.len() <= n {
            return Self::from_trace(trace);
        }
        let start = (trace.len() - n) / 2;
        Self::from_trace(&trace[start..start + n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_manycore::{EventKind, JobId};

    fn ev(time: f64, corunning: u32) -> EngineEvent {
        EngineEvent {
            time,
            kind: EventKind::Start,
            job: JobId(0),
            tag: 0,
            corunning,
        }
    }

    #[test]
    fn empty_trace() {
        let s = CorunStats::from_trace(&[]);
        assert_eq!(s.events, 0);
        assert_eq!(s.avg_corunning, 0.0);
    }

    #[test]
    fn averages_and_max() {
        let trace = vec![ev(0.0, 1), ev(1.0, 2), ev(2.0, 3), ev(3.0, 2)];
        let s = CorunStats::from_trace(&trace);
        assert_eq!(s.events, 4);
        assert!((s.avg_corunning - 2.0).abs() < 1e-12);
        assert_eq!(s.max_corunning, 3);
    }

    #[test]
    fn middle_window_centers() {
        let trace: Vec<EngineEvent> = (0..100)
            .map(|i| ev(i as f64, if (40..60).contains(&i) { 5 } else { 1 }))
            .collect();
        let s = CorunStats::middle_window(&trace, 20);
        assert_eq!(s.events, 20);
        assert_eq!(s.max_corunning, 5);
        assert!(
            s.avg_corunning > 4.0,
            "window must land on the middle: {}",
            s.avg_corunning
        );
    }
}

/// Exports a step's per-node timings as a Chrome Trace Event Format JSON
/// string (load it at `chrome://tracing` or in Perfetto). Each operation
/// becomes a complete ("X") event; concurrent ops are laid out on separate
/// rows by greedy lane assignment.
pub fn export_chrome_trace(
    graph: &nnrt_graph::DataflowGraph,
    timings: &[crate::exec::NodeTiming],
) -> String {
    // Greedy lane assignment: reuse the first lane that is free by an op's
    // start time (timings arrive in completion order; sort by start first).
    let mut order: Vec<usize> = (0..timings.len()).collect();
    order.sort_by(|&a, &b| timings[a].start.partial_cmp(&timings[b].start).unwrap());
    let mut lane_free_at: Vec<f64> = Vec::new();
    let mut lanes = vec![0u32; timings.len()];
    for idx in order {
        let t = &timings[idx];
        let lane = match lane_free_at
            .iter()
            .position(|&free| free <= t.start + 1e-12)
        {
            Some(l) => {
                lane_free_at[l] = t.finish;
                l
            }
            None => {
                lane_free_at.push(t.finish);
                lane_free_at.len() - 1
            }
        };
        lanes[idx] = lane as u32;
    }
    export_lane_chrome_trace(graph, timings, &lanes)
}

/// Exports timings as Chrome Trace Event JSON with **caller-assigned** lanes:
/// `lanes[i]` is the zero-based row of `timings[i]` (rendered as `tid =
/// lane + 1`). This is the stream-schedule exporter — a GPU stream runtime
/// already knows which stream ran each kernel, so its lanes are the streams
/// themselves rather than a greedy reconstruction.
///
/// Panics if `lanes` and `timings` disagree in length.
pub fn export_lane_chrome_trace(
    graph: &nnrt_graph::DataflowGraph,
    timings: &[crate::exec::NodeTiming],
    lanes: &[u32],
) -> String {
    assert_eq!(
        timings.len(),
        lanes.len(),
        "one lane per timing is required"
    );
    let mut order: Vec<usize> = (0..timings.len()).collect();
    order.sort_by(|&a, &b| timings[a].start.partial_cmp(&timings[b].start).unwrap());
    let mut events = Vec::with_capacity(timings.len());
    for idx in order {
        let t = &timings[idx];
        let op = graph.op(nnrt_graph::NodeId(t.node));
        // Times in microseconds, as the format expects.
        events.push(format!(
            concat!(
                r#"{{"name":"{name}","cat":"{kind}","ph":"X","ts":{ts:.3},"#,
                r#""dur":{dur:.3},"pid":1,"tid":{tid},"#,
                r#""args":{{"node":{node},"shape":"{shape}","predicted_us":{pred:.3}}}}}"#
            ),
            name = op.kind,
            kind = op.kind,
            ts = t.start * 1e6,
            dur = t.actual() * 1e6,
            tid = lanes[idx] + 1,
            node = t.node,
            shape = op.shape,
            pred = t.predicted * 1e6,
        ));
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod chrome_tests {
    use crate::exec::NodeTiming;
    use nnrt_graph::{DataflowGraph, OpInstance, OpKind, Shape};

    fn timing(node: u32, start: f64, finish: f64) -> NodeTiming {
        NodeTiming {
            node,
            start,
            finish,
            predicted: finish - start,
            nominal: finish - start,
        }
    }

    #[test]
    fn exports_valid_json_with_lanes() {
        let mut g = DataflowGraph::new();
        g.add(
            OpInstance::new(OpKind::Conv2D, Shape::nhwc(1, 2, 2, 4)),
            &[],
        );
        g.add(OpInstance::new(OpKind::Relu, Shape::nhwc(1, 2, 2, 4)), &[]);
        g.add(OpInstance::new(OpKind::Mul, Shape::vec1(16)), &[]);
        // Ops 0 and 1 overlap (two lanes); op 2 reuses lane 1.
        let timings = vec![
            timing(0, 0.0, 2.0),
            timing(1, 1.0, 3.0),
            timing(2, 2.5, 4.0),
        ];
        let json = super::export_chrome_trace(&g, &timings);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["tid"], 1);
        assert_eq!(events[1]["tid"], 2, "overlapping op needs a second lane");
        assert_eq!(events[2]["tid"], 1, "freed lane is reused");
        assert_eq!(events[0]["name"], "Conv2D");
        assert_eq!(events[0]["dur"].as_f64().unwrap(), 2e6);
    }

    #[test]
    fn empty_timings_export_cleanly() {
        let g = DataflowGraph::new();
        let json = super::export_chrome_trace(&g, &[]);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed["traceEvents"].as_array().unwrap().is_empty());
    }
}
