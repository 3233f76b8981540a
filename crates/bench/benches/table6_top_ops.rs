//! Table VI — the five most time-consuming op kinds of each model under the
//! recommendation, and their speedups once Strategies 1+2 pick per-kind
//! thread counts.

use nnrt_bench::paper::TABLE6;
use nnrt_bench::setup::Bench;
use nnrt_bench::{ExperimentRecord, Table};
use nnrt_sched::RuntimeConfig;

fn main() {
    let mut record = ExperimentRecord::new(
        "table6",
        "Top-5 op kinds per model: time under recommendation and S1+2 speedup",
    );
    for (bench, &(pname, paper_rows)) in Bench::paper_models().iter().zip(&TABLE6) {
        assert_eq!(bench.spec.name, pname);
        let rec = bench.recommendation();
        let tuned = bench
            .runtime(RuntimeConfig::s12_only())
            .run_step(&bench.spec.graph);
        let mut table = Table::new([
            "op (ours)",
            "ms (ours)",
            "speedup (ours)",
            "op (paper)",
            "ms (paper)",
            "speedup (paper)",
        ]);
        for (i, &(kind, t_rec, count)) in rec.top_kinds(5).iter().enumerate() {
            let t_tuned = tuned.kind_time(kind).unwrap_or(t_rec);
            let speedup = t_rec / t_tuned;
            let (p_op, p_ms, p_sp) = paper_rows[i];
            table.row([
                format!("{kind} (x{count})"),
                format!("{:.1}", t_rec * 1e3),
                format!("{speedup:.2}"),
                p_op.to_string(),
                format!("{p_ms:.1}"),
                format!("{p_sp:.2}"),
            ]);
            record.push(
                &format!("{}_{}_speedup", bench.spec.name, kind),
                speedup,
                p_sp,
            );
        }
        table.print(&format!("Table VI ({}): top-5 op kinds", bench.spec.name));
    }
    record.notes(
        "The headline kinds match on the conv nets (Conv2DBackpropFilter tops \
         ResNet-50, Conv2DBackpropInput tops DCGAN); S1+2 speedups of the big \
         kinds sit in the paper's 1.0-1.3x band. Our Inception-v3 ranks \
         convolutions above AvgPool (our pooling-branch cost model is lighter \
         than MKL-DNN's pooling was on KNL), and our LSTM is topped by MatMul \
         rather than SparseSoftmaxCross, with its small elementwise kinds \
         gaining most (Mul, AddN).",
    );
    record.write();
}
