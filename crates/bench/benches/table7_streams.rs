//! Table VII / Figure 5 through the discrete-event stream runtime: two-stream
//! co-run speedups per op kind, best-vs-default launch-config deltas, and
//! whole-model step times under the three stream strategies.
//!
//! The contention rules of the closed-form pairwise `corun_span` run here
//! through the event-driven multi-stream simulator (`simulate_streams` /
//! `GpuRuntime`) — the paper's actual execution setting, where kernels start
//! and finish asynchronously.

use nnrt_bench::paper::{FIG5_MAX_DELTA_BLOCKS, FIG5_MAX_DELTA_TPB, TABLE7};
use nnrt_bench::{ExperimentRecord, Table};
use nnrt_gpu::{
    gpu_op, simulate_streams, tune_exhaustive, GpuModel, GpuOpKind, GpuRuntime, GpuRuntimeConfig,
    GpuSpec, GpuStrategy, LaunchConfig, StreamLaunch,
};
use nnrt_manycore::NoiseModel;

fn main() {
    let model = GpuModel::p100();
    let cfg = LaunchConfig::tf_default();
    let mut record = ExperimentRecord::new(
        "gpu_streams",
        "Stream-runtime reproduction of Table VII co-run speedups and Fig. 5 launch-config deltas",
    );

    // Table VII: two instances of each op, serial stream vs two streams,
    // executed by the discrete-event simulator.
    let mut corun = Table::new([
        "op",
        "serial (s/10k)",
        "2-stream (s/10k)",
        "speedup (ours)",
        "speedup (paper)",
    ]);
    for (kind, &(pname, paper)) in GpuOpKind::ALL.iter().zip(&TABLE7) {
        assert_eq!(kind.name(), pname);
        let launch = StreamLaunch {
            kernel: gpu_op(*kind),
            config: cfg,
        };
        let pair = [launch, launch];
        let deps = [vec![], vec![]];
        let serial = simulate_streams(&model, &pair, &deps, 1, f64::INFINITY).makespan;
        let streamed = simulate_streams(&model, &pair, &deps, 2, f64::INFINITY).makespan;
        let speedup = serial / streamed;
        corun.row([
            kind.name().to_string(),
            format!("{:.2}", serial * 1e4),
            format!("{:.2}", streamed * 1e4),
            format!("{speedup:.2}"),
            format!("{paper:.2}"),
        ]);
        record.push(&format!("{pname} corun speedup"), speedup, paper);
    }
    corun.print("Table VII via the stream runtime: serial vs. two CUDA streams");

    // Figure 5: how far the exhaustively-best launch config is from the
    // TF default — the headroom the 2-D hill climb recovers.
    let mut fig5 = Table::new(["op", "default (us)", "best (us)", "delta", "paper max"]);
    for (kind, paper_delta) in [
        (GpuOpKind::BiasAdd, FIG5_MAX_DELTA_TPB),
        (GpuOpKind::MaxPooling, FIG5_MAX_DELTA_BLOCKS),
    ] {
        let k = gpu_op(kind);
        let default = model.time(&k, cfg);
        let best = tune_exhaustive(&model, &k);
        let delta = (default - best.secs) / default;
        fig5.row([
            kind.name().to_string(),
            format!("{:.1}", default * 1e6),
            format!("{:.1}", best.secs * 1e6),
            format!("{:.1}%", delta * 100.0),
            format!("{:.0}%", paper_delta * 100.0),
        ]);
        record.push(
            &format!("{} launch-config delta", kind.name()),
            delta,
            paper_delta,
        );
    }
    fig5.print("Figure 5: best vs. TF-default launch configuration");

    // Whole models under the three strategies: the Section VII conclusion
    // ("inter-op parallelism is worth pursuing on GPU") at graph scale.
    let mut steps = Table::new([
        "model",
        "serial (s)",
        "static-2 (s)",
        "controlled (s)",
        "streams",
    ]);
    let quiet = GpuRuntimeConfig {
        profile: nnrt_gpu::GpuProfileConfig {
            noise: NoiseModel::none(),
            ..nnrt_gpu::GpuProfileConfig::default()
        },
        ..GpuRuntimeConfig::default()
    };
    for spec in [nnrt_models::dcgan(8), nnrt_models::inception_v3(4)] {
        let run = |strategy: GpuStrategy| {
            let rt = GpuRuntime::prepare(
                &spec.graph,
                GpuSpec::p100(),
                GpuRuntimeConfig { strategy, ..quiet },
            );
            (rt.stream_count(), rt.run_step(&spec.graph).total_secs)
        };
        let (_, serial) = run(GpuStrategy::Serial);
        let (_, static2) = run(GpuStrategy::Static { streams: 2 });
        let (n, controlled) = run(GpuStrategy::default());
        steps.row([
            spec.name.to_string(),
            format!("{serial:.4}"),
            format!("{static2:.4}"),
            format!("{controlled:.4}"),
            format!("{n}"),
        ]);
        record.push(
            &format!("{} static-2 step speedup", spec.name),
            serial / static2,
            // The paper reports per-op, not per-model, stream speedups; the
            // reference here is breaking even with the serial baseline.
            1.0,
        );
        record.push(
            &format!("{} controlled step speedup", spec.name),
            serial / controlled,
            1.0,
        );
    }
    steps.print("Whole-model training steps under the stream strategies");

    record.notes(
        "Co-run speedups come from the discrete-event stream simulator (per-stream \
         ready queues, event-based cross-stream dependencies, launch overhead per \
         kernel), not the closed-form pairwise span: on the two-identical-kernel \
         microbench the two agree, and the model-level rows show the speedup \
         surviving real dependency structure. Launch-config deltas are the \
         exhaustive-search headroom the 2-D hill climb recovers per (kind, shape) \
         key; the paper's 18%/11% are maxima over a denser grid, ours are at the \
         Table VII op sizes.",
    );
    record.write();
}
