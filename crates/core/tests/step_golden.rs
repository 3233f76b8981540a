//! Pins the exact bits of one simulated training step for every model of
//! the `nnrt serve` mix, under each strategy set and under the TensorFlow
//! baseline executor. A step's report is a pure function of the graph and
//! the configuration, so any change to the engine or the scheduler that
//! moves a single floating-point bit shows up here, named by model and
//! configuration.
//!
//! The digests in `fixtures/step_golden.txt` are FNV-1a over the bit
//! patterns of `total_secs`, every `NodeTiming` and every `per_kind` row;
//! the `trace` rows digest the engine's event trace of one step instead,
//! the `repeat` rows a second step on the same runtime, and the `plan-*`
//! rows every catalog key's planned `(threads, mode)` under Strategies 1+2,
//! Strategy 1 alone and neither.
//! On a mismatch the failure message prints the full recomputed table.

use nnrt_graph::DataflowGraph;
use nnrt_manycore::{EventKind, KnlCostModel, SharingMode};
use nnrt_sched::{OpCatalog, Runtime, RuntimeConfig, StepReport, TfExecutor, TfExecutorConfig};

const GOLDEN: &str = include_str!("fixtures/step_golden.txt");

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(report: &StepReport) -> u64 {
    let mut h = Fnv::new();
    h.f64(report.total_secs);
    h.u64(report.timings.len() as u64);
    for t in &report.timings {
        h.u64(t.node as u64);
        h.f64(t.start);
        h.f64(t.finish);
        h.f64(t.predicted);
        h.f64(t.nominal);
    }
    // The fixture hashes the rows in kind order, not report order.
    let mut per_kind = report.per_kind.clone();
    per_kind.sort_by_key(|&(kind, _, _)| kind);
    h.u64(per_kind.len() as u64);
    for &(kind, secs, count) in &per_kind {
        h.bytes(format!("{kind:?}").as_bytes());
        h.f64(secs);
        h.u64(count as u64);
    }
    h.0
}

/// Digest of a step's engine event trace: every event's time bits, kind,
/// job, tag and co-running count.
fn trace_digest(report: &StepReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(report.trace.len() as u64);
    for ev in &report.trace {
        h.f64(ev.time);
        h.u64(match ev.kind {
            EventKind::Start => 0,
            EventKind::Finish => 1,
        });
        h.u64(ev.job.0);
        h.u64(ev.tag);
        h.u64(ev.corunning as u64);
    }
    h.0
}

/// Digest of the planned `(threads, mode)` of every key of the runtime's
/// catalog, in catalog order, with the key itself.
fn plan_digest(rt: &Runtime) -> u64 {
    let mut h = Fnv::new();
    h.u64(rt.catalog().keys().len() as u64);
    for (key, &(threads, mode)) in rt.catalog().keys().iter().zip(rt.planned()) {
        h.bytes(format!("{:?}", key.0).as_bytes());
        h.u64(key.1 .0.len() as u64);
        for &dim in &key.1 .0 {
            h.u64(dim as u64);
        }
        h.u64(threads as u64);
        h.u64(match mode {
            SharingMode::Compact => 0,
            SharingMode::Scatter => 1,
        });
    }
    h.0
}

/// The `nnrt serve` job mix: each model at the batch size the fleet runs.
fn serve_mix() -> Vec<(&'static str, DataflowGraph)> {
    vec![
        ("resnet50/16", nnrt_models::resnet50(16).graph),
        ("dcgan/16", nnrt_models::dcgan(16).graph),
        ("inception/4", nnrt_models::inception_v3(4).graph),
        ("lstm/8", nnrt_models::lstm(8).graph),
        ("transformer/4", nnrt_models::transformer(4).graph),
    ]
}

/// `(model, config, digest)` for every model and configuration.
fn computed() -> Vec<(String, String, u64)> {
    let cost = KnlCostModel::knl();
    let mut rows = Vec::new();
    // Rows added after the step rows, so those keep their fixture lines.
    let mut later = Vec::new();
    for (model, graph) in serve_mix() {
        for (name, config) in [
            ("default", RuntimeConfig::default()),
            ("s12", RuntimeConfig::s12_only()),
            ("s123", RuntimeConfig::s123()),
        ] {
            let mut rt = Runtime::prepare(&graph, cost.clone(), config);
            let step = digest(&rt.run_step(&graph));
            rows.push((model.to_string(), name.to_string(), step));
            // The runtime keeps nothing of a step: a second one repeats it.
            let again = digest(&rt.run_step(&graph));
            assert_eq!(again, step, "{model} under {name}: second step moved");
            if name == "default" {
                later.push((model.to_string(), "repeat".to_string(), again));
                later.push((model.to_string(), "plan-s12".to_string(), plan_digest(&rt)));
            }
            if model == "dcgan/16" && name == "default" {
                // The Figure 4 trace: recording it must not move the step.
                rt.record_trace(true);
                let traced = rt.run_step(&graph);
                assert_eq!(digest(&traced), step, "trace recording moved the step");
                rows.push((
                    model.to_string(),
                    "trace".to_string(),
                    trace_digest(&traced),
                ));
            }
        }
        let catalog = OpCatalog::new(&graph);
        // The recommendation runs one op at a time; the 4 x 34 pool puts
        // several `Shared` placements on the same cores at once.
        for (name, cfg) in [
            ("tf-recommendation", TfExecutorConfig::recommendation()),
            (
                "tf-inter4-intra34",
                TfExecutorConfig {
                    inter_op: 4,
                    intra_op: 34,
                },
            ),
        ] {
            let report = TfExecutor::new(cfg).run_step(&graph, &catalog, &cost);
            rows.push((model.to_string(), name.to_string(), digest(&report)));
        }
        for (name, config) in [
            (
                "plan-s1",
                RuntimeConfig {
                    s2: false,
                    ..Default::default()
                },
            ),
            (
                "plan-none",
                RuntimeConfig {
                    s1: false,
                    ..Default::default()
                },
            ),
        ] {
            let rt = Runtime::prepare(&graph, cost.clone(), config);
            later.push((model.to_string(), name.to_string(), plan_digest(&rt)));
        }
    }
    rows.extend(later);
    rows
}

#[test]
fn per_kind_rows_come_out_in_one_order() {
    // dcgan/16 under Strategies 1+2 has kinds with exactly equal busy time;
    // each run's accumulator hashes with fresh keys, so the row order must
    // not depend on hash order.
    let graph = nnrt_models::dcgan(16).graph;
    let rt = Runtime::prepare(&graph, KnlCostModel::knl(), RuntimeConfig::s12_only());
    let rows = |r: StepReport| -> Vec<_> { r.per_kind.iter().map(|&(k, _, _)| k).collect() };
    let first = rows(rt.run_step(&graph));
    for _ in 0..8 {
        assert_eq!(rows(rt.run_step(&graph)), first);
    }
}

#[test]
fn step_reports_match_the_golden_digests() {
    let golden: Vec<(String, String, u64)> = GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "malformed fixture line: {l:?}");
            let d = u64::from_str_radix(f[2], 16).expect("hex digest");
            (f[0].to_string(), f[1].to_string(), d)
        })
        .collect();
    let rows = computed();
    let table: String = rows
        .iter()
        .map(|(m, c, d)| format!("{m} {c} {d:016x}\n"))
        .collect();
    assert_eq!(
        golden.len(),
        rows.len(),
        "fixture has {} rows, computed {}; recomputed table:\n{table}",
        golden.len(),
        rows.len()
    );
    let mismatched: Vec<String> = rows
        .iter()
        .zip(&golden)
        .filter(|(r, g)| r != g)
        .map(|((m, c, d), (_, _, want))| format!("{m} under {c}: got {d:016x}, want {want:016x}"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "step reports changed:\n{}\nrecomputed table:\n{table}",
        mismatched.join("\n")
    );
}
