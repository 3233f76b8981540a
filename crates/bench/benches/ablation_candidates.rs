//! Ablation A1/A3 — Strategy 3's candidate policy. The paper uses *three*
//! candidates per ready op ("an empirical number") and picks the
//! fewest-threads fitting one (its example prefers 18 threads over the
//! faster 20). This bench varies the candidate count (1/3/5) and flips the
//! preference to fastest-first.

use nnrt_bench::setup::Bench;
use nnrt_bench::{ExperimentRecord, Table};
use nnrt_sched::RuntimeConfig;

fn main() {
    let mut record = ExperimentRecord::new(
        "ablation_candidates",
        "Strategy 3 candidate count and selection-preference ablation",
    );
    let mut table = Table::new([
        "model",
        "1 cand",
        "3 cands (paper)",
        "5 cands",
        "3 cands, fastest-first",
    ]);
    for bench in Bench::paper_models() {
        let rec = bench.recommendation().total_secs;
        let run = |candidates: usize, prefer_fewest: bool| {
            let cfg = RuntimeConfig {
                candidates,
                prefer_fewest_threads: prefer_fewest,
                // With the profiler's default stride of 4, a tolerance of 2
                // collapses every candidate to the planned count and hides
                // this knob entirely (see ablation_threshold); loosen it so
                // the candidate count is actually exercised.
                s2_tolerance: u32::MAX,
                ..RuntimeConfig::default()
            };
            rec / bench.runtime(cfg).run_step(&bench.spec.graph).total_secs
        };
        let c1 = run(1, true);
        let c3 = run(3, true);
        let c5 = run(5, true);
        let fastest = run(3, false);
        table.row([
            bench.spec.name.to_string(),
            format!("{c1:.2}"),
            format!("{c3:.2}"),
            format!("{c5:.2}"),
            format!("{fastest:.2}"),
        ]);
        record.push(&format!("{}_c1", bench.spec.name), c1, f64::NAN);
        record.push(&format!("{}_c3", bench.spec.name), c3, f64::NAN);
        record.push(&format!("{}_c5", bench.spec.name), c5, f64::NAN);
        record.push(&format!("{}_fastest", bench.spec.name), fastest, f64::NAN);
    }
    table.print("Ablation: speedup over recommendation per candidate policy");
    record.notes(
        "Run with the S2/S3 tolerance disabled (with the default stride of 4 \
         and the paper's tolerance of 2, every candidate is overridden to the \
         planned count and the knob is invisible). Five candidates add nothing \
         over three. One candidate, or three taken fastest-first, is as fast \
         or faster on every model but Inception-v3, and much faster on LSTM.",
    );
    record.write();
}
