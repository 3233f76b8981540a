//! Figure 3 — the strategy ablation: (a) Strategies 1+2 vs. the
//! recommendation, (b) +Strategy 3, (c) +Strategy 4, and (d) the full
//! runtime vs. both the recommendation and exhaustive manual tuning.

use nnrt_bench::paper::FIG3;
use nnrt_bench::setup::Bench;
use nnrt_bench::{ExperimentRecord, Table};
use nnrt_sched::{manual_optimization, RuntimeConfig};

fn main() {
    let mut record = ExperimentRecord::new("fig3", "Strategy ablation speedups");
    let mut table = Table::new([
        "model",
        "S1+2 (ours)",
        "(paper)",
        "S3 (ours)",
        "(paper)",
        "S4 (ours)",
        "(paper)",
        "full (ours)",
        "(paper)",
        "manual (ours)",
        "(paper)",
    ]);
    for (bench, &(name, p12, p3, p4, pfull, pmanual)) in Bench::paper_models().iter().zip(&FIG3) {
        assert_eq!(bench.spec.name, name);
        let rec = bench.recommendation().total_secs;
        let s12 = bench
            .runtime(RuntimeConfig::s12_only())
            .run_step(&bench.spec.graph)
            .total_secs;
        let s123 = bench
            .runtime(RuntimeConfig::s123())
            .run_step(&bench.spec.graph)
            .total_secs;
        let full = bench.ours().total_secs;
        let (mcfg, manual) = manual_optimization(&bench.spec.graph, &bench.catalog, &bench.cost);
        let (g12, g3, g4, gfull, gman) = (
            rec / s12,
            s12 / s123,
            s123 / full,
            rec / full,
            rec / manual.total_secs,
        );
        table.row([
            name.to_string(),
            format!("{g12:.2}"),
            format!("{p12:.2}"),
            format!("{g3:.2}"),
            format!("{p3:.2}"),
            format!("{g4:.2}"),
            format!("{p4:.2}"),
            format!("{gfull:.2}"),
            format!("{pfull:.2}"),
            format!("{gman:.2} ({},{})", mcfg.inter_op, mcfg.intra_op),
            format!("{pmanual:.2}"),
        ]);
        record.push(&format!("{name}_s12"), g12, p12);
        record.push(&format!("{name}_s3"), g3, p3);
        record.push(&format!("{name}_s4"), g4, p4);
        record.push(&format!("{name}_full"), gfull, pfull);
        record.push(&format!("{name}_manual"), gman, pmanual);
    }
    table.print("Figure 3: incremental speedups of Strategies 1+2, 3, 4, and the full runtime vs. manual tuning");

    let models = Bench::paper_models();
    let avg: f64 = models
        .iter()
        .map(|b| b.recommendation().total_secs / b.ours().total_secs)
        .sum::<f64>()
        / models.len() as f64;
    println!(
        "\nAverage full-runtime speedup over the recommendation: {:.0}% (paper: 36% average, up to 49%).",
        (avg - 1.0) * 100.0
    );
    record.push("average_gain_pct", (avg - 1.0) * 100.0, 36.0);
    record.notes(
        "Headline result reproduced on the conv nets: 1.2-1.5x over the \
         recommendation, S3 the largest contributor on ResNet-50. LSTM falls \
         short (1.12x vs the paper's 1.43x): S3 gives only 1.06x and S4 costs \
         2%, which pulls the average gain to 31% (paper 36%). Known deviation: \
         in the simulator, exhaustive manual tuning finds stronger many-way \
         co-run configs than the paper's manual runs did, so our runtime lands \
         below manual (about 90% of it on ResNet-50 and DCGAN, 60% on \
         Inception-v3).",
    );
    record.write();
}
