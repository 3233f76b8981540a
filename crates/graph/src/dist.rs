//! Distributed-training annotations over a dataflow graph.
//!
//! Multi-node training needs to know, per parameter, *which* operation
//! produces its gradient: a data-parallel replica can start that
//! parameter's all-reduce the moment the producer finishes, long before the
//! rest of the backward pass completes. This module is the graph-builder
//! pass that recovers those bindings from an already-built training graph —
//! every optimizer-update op
//! ([`OpKind::is_param_update`](crate::OpKind::is_param_update)) is tagged
//! with its gradient-producing predecessor and the parameter's byte volume.

use crate::graph::{DataflowGraph, NodeId};
use serde::{Deserialize, Serialize};

/// One parameter's gradient binding: the optimizer-update op, the op whose
/// completion makes the gradient available, and the tensor volume that must
/// cross the wire to synchronize it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GradBinding {
    /// The optimizer-update op (`ApplyAdam` / `ApplyGradientDescent`).
    pub update: NodeId,
    /// The predecessor producing the gradient this update consumes. When an
    /// update has several predecessors, the latest one — the gradient is
    /// only complete once every input to the update is.
    pub producer: NodeId,
    /// Bytes of the parameter tensor (f32), which is also the gradient's
    /// wire volume in a data-parallel all-reduce.
    pub bytes: f64,
}

/// Binds every optimizer-update op in `graph` to the op producing its
/// gradient. Returned in update-op order (ascending [`NodeId`]), so the
/// result is deterministic for a given graph.
///
/// Updates with no predecessor (degenerate graphs) bind to themselves: the
/// gradient is "ready" when the update itself is reached.
pub fn grad_param_bindings(graph: &DataflowGraph) -> Vec<GradBinding> {
    graph
        .iter()
        .filter(|(_, op)| op.kind.is_param_update())
        .map(|(id, op)| {
            let producer = graph.preds(id).iter().copied().max().unwrap_or(id);
            GradBinding {
                update: id,
                producer,
                bytes: op.shape.bytes_f32() as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpInstance;
    use crate::ops::OpKind;
    use crate::shape::Shape;

    #[test]
    fn bindings_cover_every_update_and_point_backward() {
        let mut g = DataflowGraph::new();
        let grad_a = g.add(
            OpInstance::new(OpKind::Conv2DBackpropFilter, Shape::vec1(1000)),
            &[],
        );
        let grad_b = g.add(OpInstance::new(OpKind::BiasAddGrad, Shape::vec1(10)), &[]);
        let upd_a = g.add(
            OpInstance::new(OpKind::ApplyAdam, Shape::vec1(1000)),
            &[grad_a],
        );
        let upd_b = g.add(
            OpInstance::new(OpKind::ApplyGradientDescent, Shape::vec1(10)),
            &[grad_b],
        );
        let bindings = grad_param_bindings(&g);
        assert_eq!(bindings.len(), 2);
        assert_eq!(bindings[0].update, upd_a);
        assert_eq!(bindings[0].producer, grad_a);
        assert_eq!(bindings[0].bytes, 4000.0);
        assert_eq!(bindings[1].update, upd_b);
        assert_eq!(bindings[1].producer, grad_b);
    }

    #[test]
    fn paper_models_bind_all_their_updates() {
        let g = nnrt_models_fixture();
        let bindings = grad_param_bindings(&g);
        let updates = g.iter().filter(|(_, op)| op.kind.is_param_update()).count();
        assert_eq!(bindings.len(), updates);
        assert!(updates > 0, "a training graph must update parameters");
        for b in &bindings {
            assert!(b.producer < b.update, "gradients are produced upstream");
            assert!(b.bytes > 0.0);
        }
        // Producers span the backward pass rather than clustering at its
        // end — that spread is what comm/compute overlap exploits.
        let first = bindings.iter().map(|b| b.producer.0).min().unwrap();
        let last = bindings.iter().map(|b| b.producer.0).max().unwrap();
        assert!(last > first, "gradients must become ready over time");
    }

    /// A small in-crate stand-in for a model graph (models depends on this
    /// crate, not the reverse): two layers, each with a weight update.
    fn nnrt_models_fixture() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let x = g.add(OpInstance::new(OpKind::Identity, Shape::vec1(64)), &[]);
        let fwd1 = g.add(OpInstance::new(OpKind::MatMul, Shape::vec1(64)), &[x]);
        let fwd2 = g.add(OpInstance::new(OpKind::MatMul, Shape::vec1(64)), &[fwd1]);
        let loss = g.add(OpInstance::new(OpKind::Softmax, Shape::vec1(64)), &[fwd2]);
        let g2 = g.add(
            OpInstance::new(OpKind::Conv2DBackpropFilter, Shape::vec1(4096)),
            &[loss],
        );
        let gi = g.add(
            OpInstance::new(OpKind::Conv2DBackpropInput, Shape::vec1(64)),
            &[loss],
        );
        let g1 = g.add(
            OpInstance::new(OpKind::Conv2DBackpropFilter, Shape::vec1(4096)),
            &[gi],
        );
        g.add(OpInstance::new(OpKind::ApplyAdam, Shape::vec1(4096)), &[g2]);
        g.add(OpInstance::new(OpKind::ApplyAdam, Shape::vec1(4096)), &[g1]);
        g
    }
}
