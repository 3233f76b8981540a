//! Pins the serialized form of a small graph: journals, snapshots and
//! reports embed graphs, so their bytes must not drift with the in-memory
//! representation.

use nnrt_graph::{DataflowGraph, OpAux, OpInstance, OpKind, Shape};

const GOLDEN: &str = include_str!("fixtures/small_graph.json");

/// A conv -> {relu, bias} -> add diamond with non-default attributes.
fn small_graph() -> DataflowGraph {
    let mut g = DataflowGraph::new();
    let aux = OpAux {
        kernel_h: 3,
        kernel_w: 3,
        stride: 2,
        c_out: 32,
    };
    let conv = g.add(
        OpInstance::with_aux(OpKind::Conv2D, Shape::nhwc(2, 16, 16, 8), aux),
        &[],
    );
    let relu = g.add_op(OpKind::Relu, Shape::nhwc(2, 8, 8, 32), &[conv]);
    let bias = g.add_op(OpKind::BiasAdd, Shape::nhwc(2, 8, 8, 32), &[conv]);
    g.add_op(OpKind::Add, Shape::nhwc(2, 8, 8, 32), &[relu, bias]);
    g
}

#[test]
fn serializes_to_the_golden_bytes() {
    let json = serde_json::to_string(&small_graph()).unwrap();
    assert_eq!(json, GOLDEN.trim_end());
}

#[test]
fn parses_the_golden_bytes_back() {
    let g: DataflowGraph = serde_json::from_str(GOLDEN).unwrap();
    g.validate().unwrap();
    assert_eq!(g, small_graph());
    assert_eq!(serde_json::to_string(&g).unwrap(), GOLDEN.trim_end());
}
