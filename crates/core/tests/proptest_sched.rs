//! Property tests for the scheduling crate: hill-climb model invariants,
//! plan invariants, and robustness to hostile measurement conditions.

use nnrt_graph::{DataflowGraph, OpAux, OpInstance, OpKind, Shape};
use nnrt_manycore::{KnlCostModel, NoiseModel, SharingMode};
use nnrt_sched::plan::PerfModel;
use nnrt_sched::{HillClimbConfig, HillClimbModel, Measurer, OpCatalog, Runtime, RuntimeConfig};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = OpKind> {
    proptest::sample::select(vec![
        OpKind::Conv2D,
        OpKind::Conv2DBackpropFilter,
        OpKind::MatMul,
        OpKind::Relu,
        OpKind::ApplyAdam,
        OpKind::FusedBatchNorm,
    ])
}

fn catalog_of(ops: Vec<(OpKind, usize, usize)>) -> OpCatalog {
    OpCatalog::new(&graph_of(ops))
}

fn graph_of(ops: Vec<(OpKind, usize, usize)>) -> DataflowGraph {
    let mut g = DataflowGraph::new();
    for (kind, hw, c) in ops {
        g.add(
            OpInstance::with_aux(
                kind,
                Shape::nhwc(8, hw, hw, c * 8),
                OpAux::conv(3, 1, c * 8),
            ),
            &[],
        );
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hillclimb_predictions_match_samples_exactly(
        ops in proptest::collection::vec((arb_kind(), 2usize..=24, 1usize..=48), 1..=6),
        interval in 2u32..=16,
    ) {
        let catalog = catalog_of(ops);
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 5);
        let model = HillClimbModel::fit(
            &catalog,
            &mut m,
            HillClimbConfig { interval, max_threads: 68, warm_seed: true },
        );
        for key in catalog.keys() {
            for mode in SharingMode::ALL {
                let curve = model.curve(key, mode).expect("profiled");
                for &(p, t) in &curve.samples {
                    let pred = model.predict(key, p, mode).unwrap();
                    prop_assert!((pred - t).abs() < 1e-15, "sampled point must be exact");
                }
                // Interpolations between neighbours stay within their bracket.
                for w in curve.samples.windows(2) {
                    let mid = (w[0].0 + w[1].0) / 2;
                    if mid == w[0].0 || mid == w[1].0 {
                        continue;
                    }
                    let pred = model.predict(key, mid, mode).unwrap();
                    let (lo, hi) = (w[0].1.min(w[1].1), w[0].1.max(w[1].1));
                    prop_assert!(pred >= lo - 1e-12 && pred <= hi + 1e-12);
                }
            }
        }
    }

    #[test]
    fn hillclimb_best_is_the_sampled_minimum(
        ops in proptest::collection::vec((arb_kind(), 2usize..=24, 1usize..=48), 1..=5),
    ) {
        let catalog = catalog_of(ops);
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 9);
        let model = HillClimbModel::fit(&catalog, &mut m, HillClimbConfig::default());
        for key in catalog.keys() {
            let (_, _, best) = model.best(key).expect("profiled");
            for mode in SharingMode::ALL {
                for &(_, t) in &model.curve(key, mode).unwrap().samples {
                    prop_assert!(best <= t + 1e-15);
                }
            }
        }
    }

    #[test]
    fn per_kind_plan_unifies_thread_counts(
        ops in proptest::collection::vec((arb_kind(), 2usize..=24, 1usize..=48), 2..=8),
    ) {
        let graph = graph_of(ops);
        let catalog = OpCatalog::new(&graph);
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 3);
        let model = HillClimbModel::fit(&catalog, &mut m, HillClimbConfig::default());
        let rt = Runtime::prepare_with_model(
            &graph,
            KnlCostModel::knl(),
            RuntimeConfig::default(),
            Box::new(model),
        );
        prop_assert_eq!(rt.catalog().keys(), catalog.keys());
        use std::collections::HashMap;
        let mut per_kind: HashMap<OpKind, u32> = HashMap::new();
        for (key, &(threads, _)) in catalog.keys().iter().zip(rt.planned()) {
            prop_assert!((1..=68).contains(&threads));
            if key.0.is_tunable() {
                if let Some(&prev) = per_kind.get(&key.0) {
                    prop_assert_eq!(prev, threads, "Strategy 2: one count per kind");
                } else {
                    per_kind.insert(key.0, threads);
                }
            } else {
                prop_assert_eq!(threads, 68, "Eigen kinds stay at the default");
            }
        }
    }

    #[test]
    fn hillclimb_survives_extreme_noise(
        sigma in 0.05f64..0.8,
        seed in 0u64..100,
    ) {
        // Hostile measurement conditions: the climb may stop early or late,
        // but must terminate, produce positive predictions, and stay usable.
        let catalog = catalog_of(vec![(OpKind::Conv2D, 8, 16), (OpKind::ApplyAdam, 4, 8)]);
        let noise = NoiseModel { sigma_floor: sigma, sigma_short: sigma };
        let mut m = Measurer::new(KnlCostModel::knl(), noise, seed);
        let model = HillClimbModel::fit(&catalog, &mut m, HillClimbConfig::default());
        for key in catalog.keys() {
            let (threads, _, best) = model.best(key).expect("profiled");
            prop_assert!((1..=68).contains(&threads));
            prop_assert!(best.is_finite() && best > 0.0);
            for p in [1u32, 17, 40, 68] {
                let t = model.predict(key, p, SharingMode::Compact).unwrap();
                prop_assert!(t.is_finite() && t > 0.0);
            }
        }
    }
}
