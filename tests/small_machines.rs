//! The whole stack on machines that are not the paper's KNL: the runtime is
//! generic over topology, so it must schedule correctly on an 8-core laptop
//! or a hypothetical 128-core part.

use nnrt::prelude::*;
use nnrt::sched::OpCatalog;

fn machine(tiles: u32) -> KnlCostModel {
    KnlCostModel::new(
        Topology {
            tiles,
            cores_per_tile: 2,
            smt_per_core: 2,
        },
        KnlParams::default(),
    )
}

#[test]
fn runtime_schedules_on_an_8_core_machine() {
    let cost = machine(4); // 8 cores
    let spec = dcgan(8);
    let config = RuntimeConfig {
        hillclimb: nnrt::sched::HillClimbConfig {
            interval: 2,
            max_threads: 8,
            warm_seed: true,
        },
        ..RuntimeConfig::default()
    };
    let rt = Runtime::prepare(&spec.graph, cost.clone(), config);
    let ours = rt.run_step(&spec.graph);
    assert_eq!(ours.nodes_executed, spec.graph.len());

    let catalog = OpCatalog::new(&spec.graph);
    let rec = TfExecutor::new(TfExecutorConfig {
        inter_op: 1,
        intra_op: 8,
    })
    .run_step(&spec.graph, &catalog, &cost);
    // On 8 cores there is little left to tune (optima sit near the machine
    // width) and co-run footprints are large fractions of the chip, so
    // interference can eat most of Strategy 3's margin; the runtime must
    // still stay within a few percent of the tuned-uniform baseline.
    assert!(
        ours.total_secs <= rec.total_secs * 1.08,
        "the runtime must stay near the baseline on a small machine: {} vs {}",
        ours.total_secs,
        rec.total_secs
    );
}

#[test]
fn runtime_schedules_on_a_128_core_machine() {
    let cost = machine(64); // 128 cores
    let spec = dcgan(8);
    let config = RuntimeConfig {
        hillclimb: nnrt::sched::HillClimbConfig {
            interval: 8,
            max_threads: 128,
            warm_seed: true,
        },
        ..RuntimeConfig::default()
    };
    let rt = Runtime::prepare(&spec.graph, cost, config);
    let report = rt.run_step(&spec.graph);
    assert_eq!(report.nodes_executed, spec.graph.len());
    assert!(report.total_secs.is_finite() && report.total_secs > 0.0);
}

#[test]
fn degenerate_graphs_run_everywhere() {
    for tiles in [1u32, 4, 34] {
        let cost = machine(tiles);
        let max = 2 * tiles;
        let config = RuntimeConfig {
            hillclimb: nnrt::sched::HillClimbConfig {
                interval: 2,
                max_threads: max,
                warm_seed: true,
            },
            ..RuntimeConfig::default()
        };
        // Single op.
        let mut g = nnrt_graph::DataflowGraph::new();
        g.add_op(OpKind::Relu, Shape::vec1(1000), &[]);
        let report = Runtime::prepare(&g, cost.clone(), config).run_step(&g);
        assert_eq!(report.nodes_executed, 1);

        // Wide fan of 50 scalar-ish ops.
        let mut g = nnrt_graph::DataflowGraph::new();
        for _ in 0..50 {
            g.add_op(OpKind::Mul, Shape::scalar(), &[]);
        }
        let report = Runtime::prepare(&g, cost.clone(), config).run_step(&g);
        assert_eq!(report.nodes_executed, 50);

        // Deep chain of 50 ops.
        let mut g = nnrt_graph::DataflowGraph::new();
        let mut prev = None;
        for _ in 0..50 {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(g.add_op(OpKind::Add, Shape::vec1(4096), &deps));
        }
        let report = Runtime::prepare(&g, cost.clone(), config).run_step(&g);
        assert_eq!(report.nodes_executed, 50);
    }
}

#[test]
fn empty_graph_runs_instantly_everywhere() {
    let g = nnrt_graph::DataflowGraph::new();
    let rt = Runtime::prepare(&g, machine(4), RuntimeConfig::default());
    let report = rt.run_step(&g);
    assert_eq!(report.total_secs, 0.0);
    assert_eq!(report.nodes_executed, 0);
}
