//! End-to-end and per-layer wall-clock benchmark of nnrt.
//!
//! ```text
//! nnrt-perfbench --workload <fleet-warm|fleet-cold|rpc-open> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation of
//! the benchmark's own. `--trace 1` is a separate run that records spans
//! around the benchmark's calls into each crate's public functions and
//! prints the per-layer metrics instead. Either way the last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Everything else (sample counts, progress) goes to standard error.
//!
//! The program under test only ever sees the inputs generated from
//! `--seed`; see `perfbench/README.md` for the workloads and the metric map.

mod fleetwl;
mod rpcwl;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Every metric a run reports, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The end-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("submit_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Layers whose busy time the traced run reports as `<layer>_ms` (per
/// round), `<layer>.calls` (per round) and `<layer>.share` (of the
/// untraced round's wall time).
pub const BUSY_LAYERS: [&str; 11] = [
    "models.build",
    "sched.catalog",
    "sched.profile",
    "sched.step",
    "gpu.profile",
    "gpu.step",
    "cluster.sim",
    "serve.submit",
    "serve.store.lookup",
    "serve.store.insert",
    "serve.journal.append",
];

/// The other per-layer metrics every workload prints with `--trace 1`
/// (0 where the workload does not run the layer).
pub const LAYER_EXTRAS: [(&str, &str); 29] = [
    ("sched.measurements", "count"),
    ("sched.seeded_frac", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.store.hit_frac", "ratio"),
    ("serve.store.evictions", "count"),
    ("serve.journal.records", "count"),
    ("serve.journal.bytes", "B"),
    ("serve.list_jobs_ms", "ms"),
    ("serve.job_status_us", "us"),
    ("obs.tax_frac", "ratio"),
    ("rpc.encode_us", "us"),
    ("rpc.decode_us", "us"),
    ("rpc.rtt_us.submit", "us"),
    ("rpc.rtt_us.status", "us"),
    ("rpc.rtt_us.list_jobs", "us"),
    ("rpc.service_us.submit", "us"),
    ("rpc.service_us.status", "us"),
    ("rpc.service_us.list_jobs", "us"),
    ("rpc.wait_us.submit", "us"),
    ("rpc.wait_us.status", "us"),
    ("rpc.wait_us.list_jobs", "us"),
    ("rpc.submit_p99_ms", "ms"),
    ("rpc.read_p99_ms", "ms"),
    ("rpc.saturated", "count"),
    ("rpc.capacity_per_s", "jobs/s"),
    ("rpc.gen_lag_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer metrics that are simulation outputs rather than wall time;
/// they repeat exactly for one seed.
pub const SIM_EXTRAS: [(&str, &str); 3] = [
    ("sim.makespan_s", "sim_s"),
    ("sim.speedup_vs_tf", "x"),
    ("sim.profiling_steps", "steps"),
];

/// Builds the full per-layer metric set from the traced spans (`rounds`
/// traced rounds, each compared against an untraced round of
/// `untraced_wall_secs`) and the named `extras`; a metric the workload
/// does not produce reads 0.
pub fn layer_metrics(
    tracer: &trace::Tracer,
    rounds: f64,
    untraced_wall_secs: f64,
    extras: &[(&str, f64)],
) -> Metrics {
    let mut m = Metrics::default();
    for layer in BUSY_LAYERS {
        let busy = tracer.get(layer);
        let per_round = busy.secs / rounds;
        m.put(&format!("{layer}_ms"), per_round * 1e3, "ms");
        m.put(
            &format!("{layer}.calls"),
            busy.calls as f64 / rounds,
            "count",
        );
        m.put(
            &format!("{layer}.share"),
            per_round / untraced_wall_secs,
            "ratio",
        );
    }
    for (name, unit) in LAYER_EXTRAS.iter().chain(SIM_EXTRAS.iter()) {
        let value = extras
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        m.put(name, value, unit);
    }
    assert!(
        extras.iter().all(|(n, _)| LAYER_EXTRAS
            .iter()
            .chain(SIM_EXTRAS.iter())
            .any(|(e, _)| e == n)),
        "an extra per-layer metric is missing from LAYER_EXTRAS"
    );
    m
}

/// A finite f64 as a JSON number with all its digits; non-finite values
/// (a metric with no samples) print as 0 and fail the run's check instead.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// What one workload run returns to `main`.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (submits, reads, jobs).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    pub metrics: Metrics,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured duration of the run.
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(stats::DEFAULT_SEED),
        seconds: seconds.unwrap_or(Duration::from_secs(30)),
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory inside the working directory (the benchmark reads
/// and writes nowhere else), removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nnrt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fleet-warm" => fleetwl::run(fleetwl::Kind::Warm, &args),
        "fleet-cold" => fleetwl::run(fleetwl::Kind::Cold, &args),
        "rpc-open" => rpcwl::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nnrt-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!("peak RSS {:.1} MiB", stats::peak_rss_mb());
    if !args.trace {
        let printed: Vec<(&str, &str)> = outcome
            .metrics
            .0
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect();
        assert_eq!(
            printed, END_TO_END,
            "an untraced run prints exactly the end-to-end metrics"
        );
    }
    let finite = outcome.metrics.0.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("nnrt-perfbench: a metric had no samples");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct && finite,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
