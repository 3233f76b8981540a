//! Criterion micro-benchmarks of the library's own hot paths: the cost
//! model, the discrete-event engine, the hill-climbing profiler, scheduler
//! decisions over a full training step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nnrt_graph::{work_profile, OpAux, OpKind, Shape};
use nnrt_manycore::{CostModel, Engine, KnlCostModel, PlacementRequest, SharingMode, Topology};
use nnrt_sched::{HillClimbConfig, HillClimbModel, Measurer, OpCatalog, Runtime, RuntimeConfig};
use std::hint::black_box;

fn bench_cost_model(c: &mut Criterion) {
    let m = KnlCostModel::knl();
    let prof = work_profile(
        OpKind::Conv2DBackpropFilter,
        &Shape::nhwc(32, 8, 8, 384),
        &OpAux::conv(3, 1, 384),
    );
    c.bench_function("cost_model_solo_time", |b| {
        b.iter(|| m.solo_time(black_box(&prof), black_box(26), SharingMode::Compact))
    });
    c.bench_function("cost_model_optimal_68", |b| {
        b.iter(|| m.optimal(black_box(&prof), 68))
    });
}

fn bench_engine(c: &mut Criterion) {
    let cost = KnlCostModel::knl();
    let prof = work_profile(
        OpKind::Conv2D,
        &Shape::nhwc(32, 8, 8, 384),
        &OpAux::conv(3, 1, 384),
    );
    c.bench_function("engine_launch_drain_8_jobs", |b| {
        b.iter_batched(
            || Engine::new(Topology::knl(), cost.params().clone()),
            |mut e| {
                for i in 0..8 {
                    e.launch(
                        prof,
                        0.005,
                        &PlacementRequest::primary(8, SharingMode::Compact),
                        i,
                    )
                    .unwrap();
                }
                e.drain()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_profiler_and_runtime(c: &mut Criterion) {
    let spec = nnrt_models::dcgan(64);
    let catalog = OpCatalog::new(&spec.graph);
    c.bench_function("hillclimb_fit_dcgan", |b| {
        b.iter_batched(
            || Measurer::new(KnlCostModel::knl(), nnrt_manycore::NoiseModel::none(), 1),
            |mut m| HillClimbModel::fit(&catalog, &mut m, HillClimbConfig::default()),
            BatchSize::SmallInput,
        )
    });
    // One simulated training step of every model in the `nnrt serve` mix,
    // at the batch size the fleet runs it.
    for spec in [
        nnrt_models::resnet50(16),
        nnrt_models::dcgan(16),
        nnrt_models::inception_v3(4),
        nnrt_models::lstm(8),
        nnrt_models::transformer(4),
    ] {
        let rt = Runtime::prepare(&spec.graph, KnlCostModel::knl(), RuntimeConfig::default());
        let name = format!(
            "runtime_step_{}_{}",
            spec.name.to_lowercase().replace('-', ""),
            spec.batch
        );
        c.bench_function(&name, |b| b.iter(|| rt.run_step(black_box(&spec.graph))));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cost_model, bench_engine, bench_profiler_and_runtime
}
criterion_main!(benches);
