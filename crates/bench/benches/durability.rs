//! Durability overhead: what the write-ahead journal and background
//! snapshot flush cost a fault-free run.
//!
//! Two claims are measured. First, durability is *observationally free* in
//! simulated time — the journal is a pure side effect of the run loop, so
//! the fleet report (makespan, per-job stats) is byte-identical with and
//! without it. Second, the bench measures the wall-clock tax of journaling
//! — serialization, checksums, appends, and periodic snapshot+rotation
//! cuts — against the same workload run in memory.
//!
//! One run of the workload takes tens of milliseconds, so a single run per
//! configuration mostly measures the host's noise. The plain run and each
//! durable configuration are instead repeated `REPEATS` times, interleaved
//! round by round, and each round's tax is taken against that round's
//! plain run; the record keeps the median tax with its quartiles.

use nnrt_bench::{ExperimentRecord, Table};
use nnrt_serve::{
    replay, DurabilityConfig, Fleet, FleetConfig, FleetReport, JobSpec, JOURNAL_FILE,
};
use std::path::PathBuf;
use std::time::Instant;

fn workload() -> Vec<JobSpec> {
    let models = [
        ("resnet50", nnrt_models::resnet50(16).graph),
        ("dcgan", nnrt_models::dcgan(16).graph),
        ("inception", nnrt_models::inception_v3(4).graph),
        ("lstm", nnrt_models::lstm(8).graph),
        ("transformer", nnrt_models::transformer(4).graph),
    ];
    (0..10)
        .map(|i| {
            let (model, graph) = &models[i % models.len()];
            JobSpec {
                name: format!("{model}-{i}"),
                model: model.to_string(),
                graph: graph.clone(),
                steps: 3,
                priority: (i % 3) as u8,
                weight: 1.0,
            }
        })
        .collect()
}

fn run_fleet(durability: Option<DurabilityConfig>) -> (FleetReport, f64) {
    let config = FleetConfig {
        node_count: 2,
        durability,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(config);
    for spec in workload() {
        fleet.submit(spec).expect("queue sized for the workload");
    }
    let started = Instant::now();
    let report = fleet.run();
    (report, started.elapsed().as_secs_f64())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nnrt-bench-durability-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Rounds of the interleaved plain/durable comparison.
const REPEATS: usize = 7;

/// The first quartile, median and third quartile of `values` (linear
/// interpolation between order statistics).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

fn main() {
    let mut record = ExperimentRecord::new(
        "durability",
        "Write-ahead journal + snapshot flush: overhead of a fault-free durable run",
    );

    // Flush cadences from "journal only" (the final cut is the only flush)
    // down to an aggressive 5-simulated-second cycle.
    let cadences: [(&str, &str, f64); 3] = [
        ("final cut only", "inf", f64::INFINITY),
        ("20 s cadence", "20s", 20.0),
        ("5 s cadence", "5s", 5.0),
    ];

    let mut plain_walls = Vec::with_capacity(REPEATS);
    let mut taxes = vec![Vec::with_capacity(REPEATS); cadences.len()];
    let mut journals = vec![(0, 0); cadences.len()];
    for round in 0..REPEATS {
        let (plain, plain_wall) = run_fleet(None);
        plain_walls.push(plain_wall);
        for (i, (label, tag, interval)) in cadences.iter().enumerate() {
            let dir = scratch(&format!("{tag}-{round}"));
            let mut d = DurabilityConfig::new(dir.clone());
            d.flush_interval_secs = *interval;
            let (durable, wall) = run_fleet(Some(d));
            let identical = durable.to_json() == plain.to_json();
            assert!(
                identical,
                "{label}: durability must not perturb the simulation"
            );
            let journal = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal exists");
            journals[i] = (replay(&journal).records.len(), journal.len());
            taxes[i].push(wall / plain_wall - 1.0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let mut t = Table::new([
        "configuration",
        "p25",
        "p50",
        "p75",
        "journal records",
        "journal bytes",
    ]);
    let [lo, mid, hi] = quartiles(&plain_walls);
    t.row([
        "in-memory".to_string(),
        format!("{:.1} ms", lo * 1e3),
        format!("{:.1} ms", mid * 1e3),
        format!("{:.1} ms", hi * 1e3),
        "—".to_string(),
        "—".to_string(),
    ]);
    record.push("plain_wall_s", mid, f64::NAN);
    for (i, (label, tag, _)) in cadences.iter().enumerate() {
        let (records, bytes) = journals[i];
        let [lo, mid, hi] = quartiles(&taxes[i]);
        t.row([
            label.to_string(),
            format!("{:+.1}%", lo * 100.0),
            format!("{:+.1}%", mid * 100.0),
            format!("{:+.1}%", hi * 100.0),
            records.to_string(),
            bytes.to_string(),
        ]);
        if i == 0 {
            record.push("journal_bytes_final_cut", bytes as f64, f64::NAN);
        }
        record.push(&format!("wall_overhead_frac_{tag}"), mid, f64::NAN);
        record.push(&format!("wall_overhead_frac_{tag}_p25"), lo, f64::NAN);
        record.push(&format!("wall_overhead_frac_{tag}_p75"), hi, f64::NAN);
    }
    t.print(&format!(
        "10 mixed jobs over 2 KNL nodes, journaled to a temp directory; \
         {REPEATS} interleaved rounds (in-memory: wall time; durable: overhead \
         against the same round's in-memory run)"
    ));

    record.push("makespan_delta_s", 0.0, f64::NAN);
    record.notes(&format!(
        "Simulated makespan delta is identically zero: the journal and the \
         snapshot flush are pure side effects of the deterministic run \
         loop, asserted here by byte-comparing the fleet reports. The wall \
         overhead is the cost of serializing, checksumming, and appending \
         each state transition plus the periodic snapshot+rotation cut; \
         tighter cadences pay more rotations for a shorter replay after a \
         crash. Each overhead is the median over {REPEATS} interleaved \
         rounds of the durable run's wall time against the same round's \
         in-memory run, with its quartiles (_p25, _p75); plain_wall_s is \
         the median in-memory wall time."
    ));
    record.write();
}
