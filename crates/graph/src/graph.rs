//! The dataflow DAG of one training step.
//!
//! Nodes are operation instances; edges are dependencies. The executor layer
//! (in `nnrt-sched`) walks the frontier of ready nodes, which is exactly how
//! the TensorFlow executor dispatches work.

use crate::ops::{OpAux, OpKind};
use crate::shape::Shape;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// Index of a node in its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// One operation instance: a kind plus the input shape it runs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpInstance {
    /// The operation kind.
    pub kind: OpKind,
    /// The primary input shape (the paper's `par_input`).
    pub shape: Shape,
    /// Kind-specific attributes (kernel size, stride, output channels).
    pub aux: OpAux,
}

impl OpInstance {
    /// A new instance with default attributes.
    pub fn new(kind: OpKind, shape: Shape) -> Self {
        OpInstance {
            kind,
            shape,
            aux: OpAux::default(),
        }
    }

    /// A new instance with explicit attributes.
    pub fn with_aux(kind: OpKind, shape: Shape, aux: OpAux) -> Self {
        OpInstance { kind, shape, aux }
    }
}

impl fmt::Display for OpInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.kind, self.shape)
    }
}

/// Errors found by [`DataflowGraph::validate`] or during construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a node id that does not exist.
    DanglingEdge {
        /// The node holding the bad edge.
        node: u32,
        /// The referenced, nonexistent node.
        target: u32,
    },
    /// A dependency points forward (to a node added later), or the graph has
    /// a cycle.
    Cyclic,
    /// A node depends on itself.
    SelfLoop(u32),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingEdge { node, target } => {
                write!(f, "node {node} depends on nonexistent node {target}")
            }
            GraphError::Cyclic => write!(f, "graph contains a cycle"),
            GraphError::SelfLoop(n) => write!(f, "node {n} depends on itself"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed acyclic graph of operation instances.
///
/// Construction is append-only: dependencies must reference already-added
/// nodes, which makes every constructed graph acyclic by construction.
///
/// A graph is a handle to one shared body. Cloning bumps a reference count,
/// and [`Self::add`] copies the body only when another handle still shares
/// it (copy-on-write), so a graph built once can be held by many jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataflowGraph {
    body: Arc<Body>,
}

/// The nodes and edges every clone of a [`DataflowGraph`] shares. It owns
/// the serialized form, so sharing leaves graph bytes unchanged.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Body {
    nodes: Vec<OpInstance>,
    /// Predecessors of each node.
    preds: Vec<Vec<NodeId>>,
    /// Successors of each node (derived, kept for frontier updates).
    succs: Vec<Vec<NodeId>>,
}

impl Serialize for DataflowGraph {
    fn write_json(&self, out: &mut String) {
        self.body.write_json(out);
    }
}

impl Deserialize for DataflowGraph {
    fn from_json_value(v: &Value) -> Result<Self, serde::Error> {
        Body::from_json_value(v).map(|body| DataflowGraph {
            body: Arc::new(body),
        })
    }
}

impl DataflowGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node depending on `deps`; returns its id.
    ///
    /// # Panics
    /// Panics if any dependency id is not already in the graph (append-only
    /// construction keeps graphs acyclic).
    pub fn add(&mut self, op: OpInstance, deps: &[NodeId]) -> NodeId {
        let body = Arc::make_mut(&mut self.body);
        let id = NodeId(body.nodes.len() as u32);
        for &d in deps {
            assert!(
                (d.0 as usize) < body.nodes.len(),
                "dependency {} of new node {} does not exist yet",
                d.0,
                id.0
            );
            body.succs[d.0 as usize].push(id);
        }
        body.nodes.push(op);
        body.preds.push(deps.to_vec());
        body.succs.push(Vec::new());
        id
    }

    /// Convenience: add an op with default attributes.
    pub fn add_op(&mut self, kind: OpKind, shape: Shape, deps: &[NodeId]) -> NodeId {
        self.add(OpInstance::new(kind, shape), deps)
    }

    /// Whether `self` and `other` are handles to one body (clones of one
    /// graph), as opposed to equal graphs built apart.
    pub fn same_body(&self, other: &DataflowGraph) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// Address of the body: two live handles have the same address exactly
    /// when [`Self::same_body`] holds. A table keyed by it must hold a
    /// handle too, or a freed body's address can be reused by another graph.
    pub fn body_addr(&self) -> usize {
        Arc::as_ptr(&self.body) as usize
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.body.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.body.nodes.is_empty()
    }

    /// The op instance at `id`.
    pub fn op(&self, id: NodeId) -> &OpInstance {
        &self.body.nodes[id.0 as usize]
    }

    /// Predecessors of `id`.
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.body.preds[id.0 as usize]
    }

    /// Successors of `id`.
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.body.succs[id.0 as usize]
    }

    /// Iterator over `(id, op)` pairs in insertion (= topological) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &OpInstance)> {
        self.body
            .nodes
            .iter()
            .enumerate()
            .map(|(i, op)| (NodeId(i as u32), op))
    }

    /// Nodes with no predecessors (the initial ready frontier).
    pub fn sources(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(id, _)| self.preds(*id).is_empty())
            .map(|(id, _)| id)
            .collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(id, _)| self.succs(*id).is_empty())
            .map(|(id, _)| id)
            .collect()
    }

    /// Checks structural invariants. Graphs built through [`Self::add`] always
    /// pass; deserialized graphs may not.
    pub fn validate(&self) -> Result<(), GraphError> {
        let Body {
            nodes,
            preds,
            succs,
        } = &*self.body;
        if preds.len() != nodes.len() || succs.len() != nodes.len() {
            return Err(GraphError::Cyclic);
        }
        for (i, deps) in preds.iter().enumerate() {
            for &d in deps {
                if d.0 as usize >= nodes.len() {
                    return Err(GraphError::DanglingEdge {
                        node: i as u32,
                        target: d.0,
                    });
                }
                if d.0 as usize == i {
                    return Err(GraphError::SelfLoop(i as u32));
                }
                if d.0 as usize > i {
                    // Forward edge: only possible in a hand-crafted /
                    // deserialized graph; implies a potential cycle.
                    return Err(GraphError::Cyclic);
                }
            }
        }
        Ok(())
    }

    /// Number of instances per op kind (the paper's profiling tables).
    pub fn kind_histogram(&self) -> Vec<(OpKind, usize)> {
        let mut counts: std::collections::BTreeMap<OpKind, usize> = Default::default();
        for (_, op) in self.iter() {
            *counts.entry(op.kind).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// Distinct `(kind, shape)` keys in the graph — what the hill-climbing
    /// profiler must explore.
    pub fn distinct_keys(&self) -> Vec<crate::profile::OpKey> {
        let mut keys: Vec<crate::profile::OpKey> = self
            .iter()
            .map(|(_, op)| (op.kind, op.shape.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Total flops of one pass over the graph (sum of per-op profiles).
    pub fn total_flops(&self) -> f64 {
        self.iter()
            .map(|(_, op)| crate::profile::work_profile(op.kind, &op.shape, &op.aux).flops)
            .sum()
    }

    /// The critical-path length in number of nodes (longest chain).
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        for (id, _) in self.iter() {
            let d = self
                .preds(id)
                .iter()
                .map(|p| depth[p.0 as usize])
                .max()
                .unwrap_or(0);
            depth[id.0 as usize] = d + 1;
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// Tracks the ready frontier of a graph during execution.
///
/// The executor marks nodes complete; the tracker surfaces nodes whose
/// dependencies are all resolved, in FIFO order of becoming ready (the
/// TensorFlow executor's queue discipline).
#[derive(Debug, Clone)]
pub struct ReadyTracker {
    remaining_preds: Vec<u32>,
    ready: std::collections::VecDeque<NodeId>,
    completed: usize,
    total: usize,
}

impl ReadyTracker {
    /// A tracker positioned at the start of `graph`.
    pub fn new(graph: &DataflowGraph) -> Self {
        let remaining_preds: Vec<u32> = (0..graph.len())
            .map(|i| graph.preds(NodeId(i as u32)).len() as u32)
            .collect();
        let ready = graph.sources().into();
        ReadyTracker {
            remaining_preds,
            ready,
            completed: 0,
            total: graph.len(),
        }
    }

    /// Nodes currently ready, in FIFO order.
    pub fn ready(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ready.iter().copied()
    }

    /// Pops the oldest ready node (FIFO), if any.
    pub fn pop_fifo(&mut self) -> Option<NodeId> {
        self.ready.pop_front()
    }

    /// Removes a specific node from the ready set (the co-run scheduler picks
    /// non-FIFO). Returns whether it was present.
    pub fn take(&mut self, id: NodeId) -> bool {
        if let Some(pos) = self.ready.iter().position(|&n| n == id) {
            self.ready.remove(pos);
            true
        } else {
            false
        }
    }

    /// Marks `id` complete, releasing any successors that become ready.
    pub fn complete(&mut self, graph: &DataflowGraph, id: NodeId) {
        self.completed += 1;
        for &s in graph.succs(id) {
            let r = &mut self.remaining_preds[s.0 as usize];
            debug_assert!(*r > 0, "successor {} released twice", s.0);
            *r -= 1;
            if *r == 0 {
                self.ready.push_back(s);
            }
        }
    }

    /// Whether every node has completed.
    pub fn all_done(&self) -> bool {
        self.completed == self.total
    }

    /// Number of completed nodes.
    pub fn num_completed(&self) -> usize {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DataflowGraph {
        // a -> b, a -> c, {b,c} -> d
        let mut g = DataflowGraph::new();
        let a = g.add_op(OpKind::Conv2D, Shape::nhwc(1, 8, 8, 16), &[]);
        let b = g.add_op(OpKind::Relu, Shape::nhwc(1, 8, 8, 16), &[a]);
        let c = g.add_op(OpKind::BiasAdd, Shape::nhwc(1, 8, 8, 16), &[a]);
        let _d = g.add_op(OpKind::Add, Shape::nhwc(1, 8, 8, 16), &[b, c]);
        g
    }

    #[test]
    fn construction_and_queries() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
        assert_eq!(g.preds(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.succs(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.critical_path_len(), 3);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependency_panics() {
        let mut g = DataflowGraph::new();
        g.add_op(OpKind::Relu, Shape::vec1(4), &[NodeId(5)]);
    }

    #[test]
    fn ready_tracker_respects_dependencies() {
        let g = diamond();
        let mut t = ReadyTracker::new(&g);
        assert_eq!(t.ready().collect::<Vec<_>>(), vec![NodeId(0)]);
        assert!(!t.all_done());
        let n = t.pop_fifo().unwrap();
        t.complete(&g, n);
        let mut ready: Vec<_> = t.ready().collect();
        ready.sort();
        assert_eq!(ready, vec![NodeId(1), NodeId(2)]);
        // d not ready until both b and c complete.
        let b = t.pop_fifo().unwrap();
        t.complete(&g, b);
        assert!(!t.ready().any(|n| n == NodeId(3)));
        let c = t.pop_fifo().unwrap();
        t.complete(&g, c);
        assert!(t.ready().any(|n| n == NodeId(3)));
        let d = t.pop_fifo().unwrap();
        t.complete(&g, d);
        assert!(t.all_done());
        assert_eq!(t.num_completed(), 4);
    }

    #[test]
    fn take_removes_specific_node() {
        let g = diamond();
        let mut t = ReadyTracker::new(&g);
        let first = t.pop_fifo().unwrap();
        t.complete(&g, first);
        assert!(t.take(NodeId(2)));
        assert!(!t.take(NodeId(2)));
        assert_eq!(t.ready().collect::<Vec<_>>(), vec![NodeId(1)]);
    }

    #[test]
    fn histogram_and_keys() {
        let g = diamond();
        let hist = g.kind_histogram();
        assert!(hist.contains(&(OpKind::Conv2D, 1)));
        assert_eq!(hist.iter().map(|&(_, n)| n).sum::<usize>(), 4);
        assert_eq!(g.distinct_keys().len(), 4);
    }

    #[test]
    fn empty_graph() {
        let g = DataflowGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.critical_path_len(), 0);
        let t = ReadyTracker::new(&g);
        assert!(t.all_done());
        g.validate().unwrap();
    }

    #[test]
    fn validate_catches_bad_deserialized_graph() {
        let mut g = diamond();
        // Simulate a corrupted deserialization: self-loop via direct field
        // manipulation is impossible from outside, so round-trip through
        // serde and corrupt the JSON.
        let mut v: serde_json::Value = serde_json::to_value(&g).unwrap();
        v["preds"][0] = serde_json::json!([0]);
        g = serde_json::from_value(v).unwrap();
        assert_eq!(g.validate(), Err(GraphError::SelfLoop(0)));
    }

    #[test]
    fn clone_shares_the_body() {
        let g = diamond();
        let c = g.clone();
        assert!(g.same_body(&c));
        assert_eq!(g.body_addr(), c.body_addr());
        let apart = diamond();
        assert_eq!(g, apart);
        assert!(!g.same_body(&apart), "equal graphs built apart");
        assert_ne!(g.body_addr(), apart.body_addr());
    }

    #[test]
    fn add_on_a_clone_leaves_the_original_untouched() {
        let g = diamond();
        let mut c = g.clone();
        let sink = c.add_op(OpKind::Relu, Shape::nhwc(1, 8, 8, 16), &[NodeId(3)]);
        assert!(!g.same_body(&c));
        assert_eq!(g.len(), 4);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
        assert!(g.succs(NodeId(3)).is_empty());
        assert_eq!(c.len(), 5);
        assert_eq!(c.sinks(), vec![sink]);
        assert_eq!(g, diamond());
    }

    #[test]
    fn total_flops_positive() {
        assert!(diamond().total_flops() > 0.0);
    }
}
