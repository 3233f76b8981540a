//! How much does being *online* cost? An offline oracle with the true cost
//! model and exact per-op optima packs ready operations
//! longest-processing-time-first; the gap to the paper's online Strategies
//! 1-4 is the honest price of greedy decisions from noisy predictions.

use nnrt_bench::setup::Bench;
use nnrt_bench::{ExperimentRecord, Table};
use nnrt_sched::OracleScheduler;

fn main() {
    let mut record = ExperimentRecord::new(
        "ablation_oracle",
        "Online Strategies 1-4 vs an omniscient offline packer",
    );
    let mut table = Table::new([
        "model",
        "recommendation (ms)",
        "strategies 1-4 (ms)",
        "oracle (ms)",
        "online captures",
    ]);
    for bench in Bench::paper_models() {
        let rec = bench.recommendation().total_secs;
        let ours = bench.ours().total_secs;
        let oracle = OracleScheduler::new()
            .run_step(&bench.spec.graph, &bench.catalog, &bench.cost)
            .total_secs;
        // Fraction of the oracle's improvement over the recommendation that
        // the online runtime captures.
        let captured = ((rec - ours) / (rec - oracle)).clamp(0.0, 1.0);
        table.row([
            bench.spec.name.to_string(),
            format!("{:.1}", rec * 1e3),
            format!("{:.1}", ours * 1e3),
            format!("{:.1}", oracle * 1e3),
            format!("{:.0}%", captured * 100.0),
        ]);
        record.push(&format!("{}_captured", bench.spec.name), captured, f64::NAN);
    }
    table.print("Online vs oracle: share of the achievable improvement captured");
    record.notes(
        "The online runtime captures most of what an omniscient packer \
         achieves on ResNet-50 and DCGAN but a third or less on Inception-v3 \
         and LSTM; the residue is the price of noisy predictions, the \
         Strategy 2 pinning rule, and the conservative co-run admission test.",
    );
    record.write();
}
