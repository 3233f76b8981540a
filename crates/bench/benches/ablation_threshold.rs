//! Ablation A2 — the S2/S3 consistency tolerance. The paper overrides a
//! co-run candidate whose thread count strays more than 2 from the
//! Strategy-2 planned count ("2 is an empirical value"). This bench sweeps
//! the tolerance from 0 (candidates always overridden) to effectively
//! unlimited (Strategy 2 never interferes with Strategy 3).

use nnrt_bench::setup::Bench;
use nnrt_bench::{ExperimentRecord, Table};
use nnrt_sched::RuntimeConfig;

fn main() {
    let mut record =
        ExperimentRecord::new("ablation_threshold", "S2/S3 consistency tolerance sweep");
    let mut table = Table::new(["model", "tol=0", "tol=2 (paper)", "tol=8", "tol=inf"]);
    for bench in Bench::paper_models() {
        let rec = bench.recommendation().total_secs;
        let run = |tol: u32| {
            let cfg = RuntimeConfig {
                s2_tolerance: tol,
                ..RuntimeConfig::default()
            };
            rec / bench.runtime(cfg).run_step(&bench.spec.graph).total_secs
        };
        let (t0, t2, t8, tinf) = (run(0), run(2), run(8), run(u32::MAX));
        table.row([
            bench.spec.name.to_string(),
            format!("{t0:.2}"),
            format!("{t2:.2}"),
            format!("{t8:.2}"),
            format!("{tinf:.2}"),
        ]);
        record.push(&format!("{}_tol0", bench.spec.name), t0, f64::NAN);
        record.push(&format!("{}_tol2", bench.spec.name), t2, f64::NAN);
        record.push(&format!("{}_tol8", bench.spec.name), t8, f64::NAN);
        record.push(&format!("{}_tolinf", bench.spec.name), tinf, f64::NAN);
    }
    table.print("Ablation: speedup over recommendation per S2/S3 tolerance");
    record.notes(
        "A zero tolerance collapses every candidate to the planned count \
         (less co-run freedom). Tolerances 0, 2 and 8 give nearly the same \
         speedups; unlimited tolerance is faster on Inception-v3 and LSTM, \
         because the simulated reconfiguration penalty costs less than the \
         co-run freedom it buys.",
    );
    record.write();
}
