//! RPC front-end overhead: in-process fleet API versus loopback TCP.
//!
//! The nnrt-rpc server promises that putting the fleet behind a socket
//! costs wall-clock only — the simulation itself must not move. This bench
//! submits the same job mix twice: once straight into a `Fleet`, once
//! through `RpcClient`/`FleetServer` over loopback TCP (with the
//! on-shutdown drain policy, so the reports are comparable byte for byte),
//! and records the per-request overhead, the raw request round-trip
//! latency, and the simulated-makespan delta (which must be exactly zero).
//! Both paths build each distinct `(model, batch)` graph once, as the
//! server's graph cache does, so the overhead is the wire's alone.

use nnrt_bench::{ExperimentRecord, Table};
use nnrt_rpc::{DrainPolicy, FleetServer, RpcClient, ServerConfig, SubmitSpec};
use nnrt_serve::{Fleet, FleetConfig, JobSpec};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const SEED: u64 = 0xB17E;
const STEPS: u32 = 3;
const PINGS: u32 = 200;

fn mix() -> Vec<(&'static str, usize)> {
    [
        "dcgan",
        "lstm",
        "transformer",
        "dcgan",
        "lstm",
        "dcgan",
        "transformer",
        "lstm",
    ]
    .into_iter()
    .map(|m| (m, 4))
    .collect()
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        node_count: 2,
        seed: SEED,
        ..FleetConfig::default()
    }
}

/// The whole mix through the in-process API: submit wall-time + report.
/// Each distinct graph is built on its first submit and cloned for the
/// repeats, like the server's graph cache.
fn run_in_process() -> (Duration, String) {
    let mut fleet = Fleet::new(fleet_config());
    let mut graphs = HashMap::new();
    let started = Instant::now();
    for (i, (model, batch)) in mix().into_iter().enumerate() {
        let graph = graphs.entry((model, batch)).or_insert_with(|| {
            nnrt_models::by_name(model, Some(batch))
                .expect("known model")
                .graph
        });
        fleet
            .submit(JobSpec {
                name: format!("{model}-{i}"),
                model: model.to_string(),
                graph: graph.clone(),
                steps: STEPS,
                priority: 0,
                weight: 1.0,
            })
            .expect("queue sized for the mix");
    }
    let submit_wall = started.elapsed();
    (submit_wall, fleet.run().to_json())
}

/// The same mix over loopback TCP: per-submit wall-time, raw round-trip
/// latency, and the report the graceful shutdown flushes.
fn run_over_loopback() -> (Duration, Duration, String) {
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: fleet_config(),
            drain: DrainPolicy::OnShutdown,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind");
    let mut client = RpcClient::connect(server.local_addr()).expect("connect");

    let started = Instant::now();
    for (model, batch) in mix() {
        let mut spec = SubmitSpec::new(model);
        spec.batch = batch as u64;
        spec.steps = STEPS;
        client.submit(&spec).expect("submit");
    }
    let submit_wall = started.elapsed();

    // Raw request round trip, measured on the cheapest query.
    let started = Instant::now();
    for _ in 0..PINGS {
        client.list_jobs().expect("list");
    }
    let roundtrip = started.elapsed() / PINGS;

    let report = client.shutdown().expect("shutdown");
    (submit_wall, roundtrip, report)
}

fn main() {
    let mut record = ExperimentRecord::new(
        "serve_rpc",
        "RPC front-end: in-process vs loopback-TCP submission of one job mix",
    );

    let (local_wall, local_report) = run_in_process();
    let (wire_wall, roundtrip, wire_report) = run_over_loopback();
    assert_eq!(
        local_report, wire_report,
        "the wire must not perturb the simulation"
    );

    let n = mix().len() as f64;
    let local_us = local_wall.as_secs_f64() * 1e6 / n;
    let wire_us = wire_wall.as_secs_f64() * 1e6 / n;
    let overhead_us = wire_us - local_us;

    let mut t = Table::new(["path", "submit wall/job (us)", "makespan (s)"]);
    let makespan = |report: &str| {
        serde_json::from_str::<serde_json::Value>(report).expect("report is JSON")["makespan_secs"]
            .as_f64()
            .expect("makespan")
    };
    t.row([
        "in-process".to_string(),
        format!("{local_us:.1}"),
        format!("{:.3}", makespan(&local_report)),
    ]);
    t.row([
        "loopback TCP".to_string(),
        format!("{wire_us:.1}"),
        format!("{:.3}", makespan(&wire_report)),
    ]);
    t.print(&format!(
        "{} jobs, {STEPS} steps each, 2 KNL nodes (on-shutdown drain)",
        mix().len()
    ));
    println!(
        "per-submit RPC overhead: {overhead_us:.1} us; raw round trip: {:.1} us; \
         simulated makespan delta: 0 (byte-identical reports)",
        roundtrip.as_secs_f64() * 1e6
    );

    record.push("inproc_submit_us_per_job", local_us, f64::NAN);
    record.push("rpc_submit_us_per_job", wire_us, f64::NAN);
    record.push("rpc_overhead_us_per_job", overhead_us, f64::NAN);
    record.push("rpc_roundtrip_us", roundtrip.as_secs_f64() * 1e6, f64::NAN);
    record.push("makespan_delta_s", 0.0, f64::NAN);
    record.notes(
        "Reports from the two paths compare byte-identical (asserted above), \
         so the socket adds wall-clock per request but zero simulated time: \
         frame encode/decode and a loopback TCP round trip, with the request \
         handled on the thread that read it. Both paths build each of the \
         mix's 3 distinct graphs once (the in-process side on first submit, \
         the server in its graph cache), so the per-job overhead is the wire's \
         alone.",
    );
    record.write();
}
