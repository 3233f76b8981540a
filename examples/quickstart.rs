//! Quickstart: build a small training-step graph, let the runtime profile it
//! with the hill-climbing performance model, and compare one step under the
//! paper's four scheduling strategies against the TensorFlow-guide
//! recommendation (inter-op = 1, intra-op = 68).
//!
//! Run with: `cargo run --release --example quickstart`

use nnrt::prelude::*;
use nnrt::sched::OpCatalog;
use nnrt_graph::OpAux;

fn main() {
    // 1. A miniature training step: a chain of convolutions forward, their
    //    sibling backprops backward, and an optimizer fan-out — the
    //    dependency shapes the paper's scheduler exploits.
    let mut g = DataflowGraph::new();
    let shape = Shape::nhwc(32, 8, 8, 384);
    let aux = OpAux::conv(3, 1, 384);
    let mut prev = None;
    for _ in 0..4 {
        let deps: Vec<_> = prev.into_iter().collect();
        let conv = g.add(
            nnrt_graph::OpInstance::with_aux(OpKind::Conv2D, shape.clone(), aux),
            &deps,
        );
        prev = Some(g.add_op(OpKind::Relu, shape.clone(), &[conv]));
    }
    let mut grad = prev.unwrap();
    let mut weight_grads = Vec::new();
    for _ in 0..4 {
        let cbf = g.add(
            nnrt_graph::OpInstance::with_aux(OpKind::Conv2DBackpropFilter, shape.clone(), aux),
            &[grad],
        );
        let cbi = g.add(
            nnrt_graph::OpInstance::with_aux(OpKind::Conv2DBackpropInput, shape.clone(), aux),
            &[grad],
        );
        weight_grads.push(cbf);
        grad = cbi;
    }
    for wg in weight_grads {
        g.add_op(OpKind::ApplyAdam, Shape::vec1(1_327_104), &[wg]);
    }
    println!(
        "graph: {} ops, critical path {}",
        g.len(),
        g.critical_path_len()
    );

    // 2. Baseline: the TensorFlow performance guide's recommendation.
    let catalog = OpCatalog::new(&g);
    let cost = KnlCostModel::knl();
    let baseline =
        TfExecutor::new(TfExecutorConfig::recommendation()).run_step(&g, &catalog, &cost);
    println!(
        "recommendation (inter=1, intra=68): {:.2} ms",
        baseline.total_secs * 1e3
    );

    // 3. Our runtime: profile with hill climbing, then schedule with
    //    Strategies 1-4.
    let runtime = Runtime::prepare(&g, cost, RuntimeConfig::default());
    println!(
        "profiling cost: {} standalone measurements (~{} profiling steps)",
        runtime.model().measurements,
        runtime.model().profiling_steps
    );
    let ours = runtime.run_step(&g);
    println!(
        "our runtime (Strategies 1-4):      {:.2} ms",
        ours.total_secs * 1e3
    );
    println!("speedup: {:.2}x", baseline.total_secs / ours.total_secs);

    // 4. What the runtime decided, per op kind.
    println!("\nchosen intra-op parallelism per key:");
    for (key, &(threads, mode)) in runtime.catalog().keys().iter().zip(runtime.planned()) {
        println!(
            "  {:24} {}  -> {threads} threads ({mode:?})",
            key.0.to_string(),
            key.1
        );
    }
}
