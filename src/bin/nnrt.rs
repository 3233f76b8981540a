//! `nnrt` — command-line front end to the runtime.
//!
//! ```text
//! nnrt compare <model> [batch]   one step: recommendation vs strategies 1-4
//! nnrt profile <model> [batch]   hill-climb profile: per-key optima
//! nnrt grid <model> [batch]      uniform (inter, intra) grid sweep
//! nnrt plan <model> [batch]      the thread plan Strategies 1+2 install
//! nnrt trace <model> [batch]     write a chrome://tracing JSON of one step
//! nnrt serve [jobs] [nodes] [seed] [--backend <knl|gpu|cluster>] [--chaos <seed>]
//!            [--checkpoint-interval <steps>] [--profile-threads <n>] [--json]
//!                                multi-tenant fleet with a shared profile
//!                                store; prints the fleet report. `--backend
//!                                gpu` serves the jobs on P100-class stream
//!                                runtimes (2-D launch-config climbs +
//!                                concurrency-controlled co-running) instead
//!                                of KNL thread pools; `--backend cluster`
//!                                fronts each job with a multi-KNL cluster
//!                                head — gradients ride interconnect links
//!                                as events, overlapped with the backward
//!                                pass by critical-path out-of-order
//!                                backprop; `--chaos` arms a
//!                                seeded fault plan (node crash, straggler,
//!                                store corruption, profiling budget) sized
//!                                to the workload by a fault-free dry run;
//!                                `--profile-threads` shards each job's
//!                                profiling climbs across n workers
//!                                (default: available parallelism; 1 = the
//!                                legacy sequential path; any value yields
//!                                byte-identical reports); `--json` prints
//!                                the report as JSON instead of text.
//!                                Progress goes to stderr, so stdout stays
//!                                parseable
//! nnrt serve --listen <addr> [nodes] [seed] [--backend <knl|gpu|cluster>] [--hold]
//!            [--snapshot <path>] [--checkpoint-interval <steps>]
//!            [--profile-threads <n>] [--max-connections <n>]
//!            [--pipeline-depth <n>] [--json]
//!                                run the fleet behind the nnrt-rpc TCP
//!                                front-end instead of the built-in job mix;
//!                                `--listen 127.0.0.1:0` picks an ephemeral
//!                                port and prints `listening on <addr>`.
//!                                `--hold` queues all submissions and drains
//!                                only at shutdown (byte-identical reports);
//!                                `--snapshot` persists the profile store on
//!                                graceful shutdown. `--max-connections`
//!                                caps concurrent clients (default 4096);
//!                                `--pipeline-depth` caps the requests of
//!                                one connection handled per server turn
//!                                (default 16)
//!
//! Both serve modes accept `--durable <dir>`: every fleet state transition
//! is journaled write-ahead to `<dir>/journal.log` and the profile store is
//! flushed to `<dir>/store.json` on a configurable simulated-clock interval
//! (`--flush-interval <secs>`, default 20). After a crash — even `kill -9`
//! — `--recover` replays snapshot + journal, resumes interrupted jobs from
//! their checkpoints, re-queues never-placed jobs in admission order, and
//! writes the accounting to `<dir>/recovery.json`.
//!
//! Both serve modes also accept `--events <path>`: after the run, the
//! simulated-clock structured event stream is written there as JSONL —
//! byte-identical across seed-identical runs, whatever the worker count.
//!
//! ```text
//! nnrt journal <dir> [--json]    inspect a durable directory's journal:
//!                                per-record-kind counts + torn-tail status
//! ```
//! nnrt submit <addr> <model> [batch] [--steps n] [--priority p]
//!             [--weight w] [--name s] [--no-retry]
//!                                submit one job to a listening server
//!                                (retries saturated rejections while
//!                                honoring the server's retry hint)
//! nnrt status <addr> [job_id]    one job's status, or all jobs
//! nnrt metrics <addr>            scrape a listening server's metrics
//!                                (Prometheus-style text, both clock domains)
//! nnrt top <addr> [--once] [--interval <secs>]
//!                                periodic one-screen live view of the fleet:
//!                                queue depth, per-node utilization, store
//!                                hit rate, fault counters, per-phase job
//!                                counts (rendered from the same exposition
//!                                `nnrt metrics` prints)
//! nnrt shutdown <addr> [--json]  drain the server and print its final report
//! nnrt models                    list the built-in models
//! ```
//!
//! Models: `resnet50` (batch 64), `dcgan` (64), `inception` (16), `lstm` (20),
//! and beyond the paper: `transformer` (8). A batch outside 1..=4096
//! (`nnrt_models::MAX_BATCH`) is a usage error.
//!
//! Exit codes: 0 success, 1 usage, 2 unknown command, 3 unknown model,
//! 4 RPC failure (server unreachable, rejection, or protocol error),
//! 5 recovery failure (unreadable durable directory or corrupt journal).

use nnrt::models::MAX_BATCH;
use nnrt::prelude::*;
use nnrt::rpc::{
    ClientError, DrainPolicy, ErrorKind, FleetServer, RetryPolicy, RpcClient, ServerConfig,
    SubmitSpec,
};
use nnrt::sched::OpCatalog;
use std::process::ExitCode;

/// Usage or missing-argument error.
const EXIT_USAGE: u8 = 1;
/// The first argument names no known subcommand.
const EXIT_UNKNOWN_COMMAND: u8 = 2;
/// A model argument names no known model.
const EXIT_UNKNOWN_MODEL: u8 = 3;
/// An RPC command failed: server unreachable, rejection, protocol error.
const EXIT_RPC: u8 = 4;
/// `--recover` could not rebuild the fleet from the durable directory.
const EXIT_RECOVERY: u8 = 5;

fn model_by_name(name: &str, batch: Option<usize>) -> Option<ModelSpec> {
    // One registry serves the CLI and the RPC server.
    nnrt::models::by_name(name, batch)
}

fn usage_text() -> String {
    "usage: nnrt <compare|profile|grid|plan|trace> <model> [batch]\n       \
     nnrt serve [jobs] [nodes] [seed] [--backend <knl|gpu|cluster>] [--chaos <seed>] [--checkpoint-interval <steps>] [--profile-threads <n>] [--durable <dir>] [--flush-interval <secs>] [--recover] [--json]\n       \
     nnrt serve --listen <addr> [nodes] [seed] [--backend <knl|gpu|cluster>] [--hold] [--snapshot <path>] [--durable <dir>] [--recover] [--profile-threads <n>] [--max-connections <n>] [--pipeline-depth <n>] [--json]\n       \
     nnrt submit <addr> <model> [batch] [--steps n] [--priority p] [--weight w] [--name s] [--no-retry]\n       \
     nnrt status <addr> [job_id] | nnrt shutdown <addr> [--json]\n       \
     nnrt metrics <addr> | nnrt top <addr> [--once] [--interval <secs>]\n       \
     nnrt journal <dir> [--json]\n       \
     nnrt models | nnrt --help\n\
     models: resnet50, dcgan, inception, lstm, transformer"
        .to_string()
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::from(EXIT_USAGE)
}

/// Default profiling worker count: one per available hardware thread. Any
/// count produces byte-identical output, so the default leans parallel.
fn default_profile_threads() -> usize {
    nnrt::sched::ProfilerPool::available().threads()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    match cmd {
        "--help" | "-h" | "help" => {
            println!("{}", usage_text());
            ExitCode::SUCCESS
        }
        "models" => {
            for m in nnrt::models::paper_models() {
                println!(
                    "{:14} batch {:3}   {:5} ops, {:4} distinct keys, critical path {}",
                    m.name,
                    m.batch,
                    m.graph.len(),
                    m.graph.distinct_keys().len(),
                    m.graph.critical_path_len()
                );
            }
            ExitCode::SUCCESS
        }
        "serve" => {
            let mut positional = Vec::new();
            let mut chaos: Option<u64> = None;
            let mut checkpoint_interval: Option<u32> = None;
            let mut profile_threads: Option<usize> = None;
            let mut backend = nnrt::serve::NodeBackend::Knl;
            let mut json = false;
            let mut listen: Option<String> = None;
            let mut max_connections: Option<usize> = None;
            let mut pipeline_depth: Option<usize> = None;
            let mut hold = false;
            let mut snapshot: Option<String> = None;
            let mut durable: Option<String> = None;
            let mut flush_interval: Option<f64> = None;
            let mut events: Option<String> = None;
            let mut recover = false;
            let mut it = args.iter().skip(1);
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--backend" => {
                        match it.next().and_then(|s| nnrt::serve::NodeBackend::parse(s)) {
                            Some(b) => backend = b,
                            None => {
                                eprintln!("--backend needs `knl`, `gpu` or `cluster`");
                                return usage();
                            }
                        }
                    }
                    "--chaos" => match it.next().and_then(|s| s.parse().ok()) {
                        Some(seed) => chaos = Some(seed),
                        None => {
                            eprintln!("--chaos needs a numeric seed");
                            return usage();
                        }
                    },
                    "--profile-threads" => match it.next().and_then(|s| s.parse().ok()) {
                        Some(n) if n >= 1 => profile_threads = Some(n),
                        _ => {
                            eprintln!("--profile-threads needs a worker count >= 1");
                            return usage();
                        }
                    },
                    "--checkpoint-interval" => match it.next().and_then(|s| s.parse().ok()) {
                        Some(steps) => checkpoint_interval = Some(steps),
                        None => {
                            eprintln!("--checkpoint-interval needs a step count");
                            return usage();
                        }
                    },
                    "--listen" => match it.next() {
                        Some(addr) => listen = Some(addr.clone()),
                        None => {
                            eprintln!("--listen needs an address (e.g. 127.0.0.1:0)");
                            return usage();
                        }
                    },
                    "--max-connections" => match it.next().and_then(|s| s.parse().ok()) {
                        Some(n) if n >= 1 => max_connections = Some(n),
                        _ => {
                            eprintln!("--max-connections needs a connection count >= 1");
                            return usage();
                        }
                    },
                    "--pipeline-depth" => match it.next().and_then(|s| s.parse().ok()) {
                        Some(n) if n >= 1 => pipeline_depth = Some(n),
                        _ => {
                            eprintln!("--pipeline-depth needs a request count >= 1");
                            return usage();
                        }
                    },
                    "--snapshot" => match it.next() {
                        Some(path) => snapshot = Some(path.clone()),
                        None => {
                            eprintln!("--snapshot needs a file path");
                            return usage();
                        }
                    },
                    "--durable" => match it.next() {
                        Some(dir) => durable = Some(dir.clone()),
                        None => {
                            eprintln!("--durable needs a directory path");
                            return usage();
                        }
                    },
                    "--flush-interval" => match it.next().and_then(|s| s.parse().ok()) {
                        Some(secs) if secs > 0.0 => flush_interval = Some(secs),
                        _ => {
                            eprintln!("--flush-interval needs a positive number of seconds");
                            return usage();
                        }
                    },
                    "--events" => match it.next() {
                        Some(path) => events = Some(path.clone()),
                        None => {
                            eprintln!("--events needs a file path");
                            return usage();
                        }
                    },
                    "--recover" => recover = true,
                    "--hold" => hold = true,
                    "--json" => json = true,
                    other => positional.push(other.to_string()),
                }
            }
            if recover && durable.is_none() {
                eprintln!("--recover needs --durable <dir> to know where the journal lives");
                return usage();
            }
            if flush_interval.is_some() && durable.is_none() {
                eprintln!("--flush-interval only applies with --durable <dir>");
                return usage();
            }
            if recover && chaos.is_some() {
                eprintln!("--recover resumes a recorded run; it does not combine with --chaos");
                return usage();
            }
            let durability = durable.map(|dir| {
                let mut d = nnrt::serve::DurabilityConfig::new(std::path::PathBuf::from(dir));
                if let Some(secs) = flush_interval {
                    d.flush_interval_secs = secs;
                }
                d
            });
            if max_connections.is_some() && listen.is_none() {
                eprintln!("--max-connections only applies with --listen");
                return usage();
            }
            if pipeline_depth.is_some() && listen.is_none() {
                eprintln!("--pipeline-depth only applies with --listen");
                return usage();
            }
            if let Some(addr) = listen {
                if chaos.is_some() {
                    eprintln!("--chaos needs a known job mix; it does not combine with --listen");
                    return usage();
                }
                // In listen mode jobs arrive over the wire, so the
                // positionals shift down to [nodes] [seed].
                let nodes: u32 = positional
                    .first()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(2)
                    .max(1);
                let seed: u64 = positional
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0xF1EE7);
                return run_listen(
                    &addr,
                    nodes,
                    seed,
                    backend,
                    checkpoint_interval,
                    profile_threads,
                    max_connections,
                    pipeline_depth,
                    hold,
                    snapshot,
                    durability,
                    events,
                    recover,
                    json,
                );
            }
            let jobs: usize = positional
                .first()
                .and_then(|s| s.parse().ok())
                .unwrap_or(10);
            let nodes: u32 = positional
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(2)
                .max(1);
            let seed: u64 = positional
                .get(2)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0xF1EE7);
            run_serve(
                jobs,
                nodes,
                seed,
                backend,
                chaos,
                checkpoint_interval,
                profile_threads,
                durability,
                events,
                recover,
                json,
            )
        }
        "journal" => run_journal(&args[1..]),
        "submit" => run_submit(&args[1..]),
        "status" => run_status(&args[1..]),
        "metrics" => run_metrics(&args[1..]),
        "top" => run_top(&args[1..]),
        "shutdown" => run_shutdown(&args[1..]),
        "compare" | "profile" | "grid" | "plan" | "trace" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let batch = match args.get(2) {
                None => None,
                Some(b) => match b.parse() {
                    Ok(n) if (1..=MAX_BATCH).contains(&n) => Some(n),
                    _ => {
                        eprintln!("batch must be an integer in 1..={MAX_BATCH}, got '{b}'");
                        return ExitCode::from(EXIT_USAGE);
                    }
                },
            };
            let Some(spec) = model_by_name(name, batch) else {
                eprintln!("unknown model '{name}'");
                eprintln!("{}", usage_text());
                return ExitCode::from(EXIT_UNKNOWN_MODEL);
            };
            run_model_command(cmd, &spec);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command '{other}'");
            eprintln!("{}", usage_text());
            ExitCode::from(EXIT_UNKNOWN_COMMAND)
        }
    }
}

/// `nnrt serve`: a mixed workload of the five models over a fleet of KNL
/// nodes sharing one profile store. The first job of each model profiles
/// cold; every later job of that model warm-starts from the store. With
/// `--chaos`, a seeded fault plan (sized to the workload via a fault-free
/// dry run) crashes a node, slows another, and corrupts the store mid-run;
/// the report then shows retries, checkpoint restores, and degraded keys.
#[allow(clippy::too_many_arguments)]
fn run_serve(
    jobs: usize,
    nodes: u32,
    seed: u64,
    backend: nnrt::serve::NodeBackend,
    chaos: Option<u64>,
    checkpoint_interval: Option<u32>,
    profile_threads: Option<usize>,
    durability: Option<nnrt::serve::DurabilityConfig>,
    events: Option<String>,
    recover: bool,
    json: bool,
) -> ExitCode {
    use nnrt::serve::{FaultPlan, Fleet, FleetConfig, JobSpec};

    let durable_dir = durability.as_ref().map(|d| d.dir.clone());

    // Small batches keep the simulated fleet quick while preserving the
    // profile-sharing structure (keys depend on shapes, not step counts).
    let workload = [
        ("resnet50", resnet50(16)),
        ("dcgan", dcgan(16)),
        ("inception", inception_v3(4)),
        ("lstm", lstm(8)),
        ("transformer", nnrt::models::transformer(4)),
    ];
    let config = FleetConfig {
        node_count: nodes,
        seed,
        checkpoint_interval: checkpoint_interval.unwrap_or(1),
        profile_threads: profile_threads.unwrap_or_else(default_profile_threads),
        backend,
        durability,
        ..FleetConfig::default()
    };
    let submit_all = |fleet: &mut Fleet, quiet: bool| {
        for i in 0..jobs {
            let (model, spec) = &workload[i % workload.len()];
            let job = JobSpec {
                name: format!("{model}-{i}"),
                model: model.to_string(),
                graph: spec.graph.clone(),
                steps: 3,
                priority: (i % 3) as u8,
                weight: 1.0 + (i % 4) as f64,
            };
            if let Err(e) = fleet.submit(job) {
                if !quiet {
                    eprintln!("rejected {model}-{i}: {e}");
                }
            }
        }
    };
    if recover {
        // Resume the recorded run: jobs come back from the journal, not
        // from a fresh submission pass.
        let (mut fleet, recovery) = match Fleet::recover(config) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("recovery failed: {e}");
                return ExitCode::from(EXIT_RECOVERY);
            }
        };
        eprint!("{}", recovery.render());
        if let Some(dir) = &durable_dir {
            let path = dir.join("recovery.json");
            if let Err(e) = nnrt::serve::write_atomic(&path, recovery.to_json().as_bytes()) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
        let report = fleet.run();
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.render());
        }
        if let Some(path) = &events {
            write_sim_events(path, &fleet.obs());
        }
        return ExitCode::SUCCESS;
    }
    // Progress goes to stderr so `--json` (and scripted) stdout stays a
    // single parseable document.
    eprintln!(
        "serving {jobs} jobs over {nodes} {} node(s), seed {seed:#x} \
         (mixed workload: {})",
        backend.name(),
        workload
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join("+")
    );
    let plan = chaos.map(|chaos_seed| {
        // Size the fault plan to the workload: a fault-free dry run tells
        // us the makespan, so the seeded events land mid-run. The dry run
        // must not touch the durable directory.
        let mut dry_config = config.clone();
        dry_config.durability = None;
        let mut dry = Fleet::new(dry_config);
        submit_all(&mut dry, true);
        let horizon = dry.run().makespan_secs;
        let plan = FaultPlan::from_seed(chaos_seed, nodes, horizon);
        eprintln!(
            "chaos seed {chaos_seed:#x}: {} events over a {horizon:.3}s horizon, \
             profiling budget {:?}",
            plan.events.len(),
            plan.profiling_step_budget
        );
        plan
    });
    let mut fleet = Fleet::new(config);
    if let Some(plan) = plan {
        fleet.set_fault_plan(plan);
    }
    submit_all(&mut fleet, false);
    let report = fleet.run();
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if let Some(path) = &events {
        write_sim_events(path, &fleet.obs());
    }
    ExitCode::SUCCESS
}

/// Writes the simulated-clock event stream as JSONL — the determinism
/// artifact CI byte-compares across seed-identical runs.
fn write_sim_events(path: &str, obs: &nnrt::obs::Obs) {
    let sim = Some(nnrt::obs::Clock::Sim);
    let jsonl = obs.events_jsonl(sim);
    match std::fs::write(path, &jsonl) {
        Ok(()) => eprintln!(
            "wrote {} sim event(s) to {path}",
            obs.events_snapshot(sim).len()
        ),
        Err(e) => eprintln!("cannot write events to {path}: {e}"),
    }
}

/// `nnrt journal <dir> [--json]`: inspect a durable directory's write-ahead
/// journal without touching it — per-record-kind counts, torn-tail status,
/// and discarded byte count. A missing journal reads as zero records (exit
/// 0), so scripts can poll a directory a server is still warming up.
fn run_journal(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut dir: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other => dir = Some(other.to_string()),
        }
    }
    let Some(dir) = dir else {
        eprintln!("journal needs a durable directory path");
        return usage();
    };
    let path = std::path::Path::new(&dir).join(nnrt::serve::JOURNAL_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::from(EXIT_RECOVERY);
        }
    };
    let replay = nnrt::serve::replay(&bytes);
    // Every tag appears in the output, zero or not, so pollers can key on
    // `complete` before the first completion lands.
    const TAGS: [&str; 9] = [
        "header",
        "graph",
        "admit",
        "place",
        "store_insert",
        "checkpoint",
        "evict",
        "retry",
        "complete",
    ];
    let mut counts = std::collections::BTreeMap::new();
    for tag in TAGS {
        counts.insert(tag, 0usize);
    }
    for record in &replay.records {
        *counts.entry(record.tag()).or_insert(0) += 1;
    }
    if json {
        let fields: Vec<String> = TAGS
            .iter()
            .map(|tag| format!("\"{tag}\":{}", counts[tag]))
            .collect();
        println!(
            "{{\"records\":{},\"counts\":{{{}}},\"torn\":{},\"discarded_bytes\":{}}}",
            replay.records.len(),
            fields.join(","),
            replay.torn.is_some(),
            replay.discarded_bytes
        );
    } else {
        println!("{}: {} record(s)", path.display(), replay.records.len());
        for tag in TAGS {
            println!("  {tag:13} {}", counts[tag]);
        }
        match &replay.torn {
            Some(e) => println!(
                "  torn tail: {} byte(s) discarded ({e})",
                replay.discarded_bytes
            ),
            None => println!("  tail clean"),
        }
    }
    ExitCode::SUCCESS
}

/// `nnrt serve --listen`: the same fleet behind the nnrt-rpc TCP front-end.
/// Prints `listening on <addr>` first (flushed, so scripts can capture an
/// ephemeral port), then blocks until a client sends `Shutdown` and prints
/// the final report.
#[allow(clippy::too_many_arguments)]
fn run_listen(
    addr: &str,
    nodes: u32,
    seed: u64,
    backend: nnrt::serve::NodeBackend,
    checkpoint_interval: Option<u32>,
    profile_threads: Option<usize>,
    max_connections: Option<usize>,
    pipeline_depth: Option<usize>,
    hold: bool,
    snapshot: Option<String>,
    durability: Option<nnrt::serve::DurabilityConfig>,
    events: Option<String>,
    recover: bool,
    json: bool,
) -> ExitCode {
    use nnrt::serve::{Fleet, FleetConfig};
    use std::io::Write as _;

    let durable_dir = durability.as_ref().map(|d| d.dir.clone());
    let config = ServerConfig {
        fleet: FleetConfig {
            node_count: nodes,
            seed,
            checkpoint_interval: checkpoint_interval.unwrap_or(1),
            profile_threads: profile_threads.unwrap_or_else(default_profile_threads),
            backend,
            durability,
            ..FleetConfig::default()
        },
        drain: if hold {
            DrainPolicy::OnShutdown
        } else {
            DrainPolicy::Eager
        },
        snapshot_path: snapshot.map(std::path::PathBuf::from),
        ..ServerConfig::default()
    };
    let config = ServerConfig {
        max_connections: max_connections.unwrap_or(config.max_connections),
        pipeline_depth: pipeline_depth.unwrap_or(config.pipeline_depth),
        ..config
    };
    // Build the fleet first (rather than letting the server build it) so a
    // handle on its observability state survives the move behind the socket
    // — `--events` drains it after shutdown.
    let (bound, obs) = if recover {
        // Rebuild the fleet from the durable directory, then put it behind
        // the socket; recovered jobs drain alongside new submissions.
        match Fleet::recover(config.fleet.clone()) {
            Ok((fleet, recovery)) => {
                eprint!("{}", recovery.render());
                if let Some(dir) = &durable_dir {
                    let path = dir.join("recovery.json");
                    if let Err(e) = nnrt::serve::write_atomic(&path, recovery.to_json().as_bytes())
                    {
                        eprintln!("cannot write {}: {e}", path.display());
                    }
                }
                let obs = fleet.obs();
                (FleetServer::bind_with_fleet(addr, fleet, config), obs)
            }
            Err(e) => {
                eprintln!("recovery failed: {e}");
                return ExitCode::from(EXIT_RECOVERY);
            }
        }
    } else {
        let fleet = Fleet::new(config.fleet.clone());
        let obs = fleet.obs();
        (FleetServer::bind_with_fleet(addr, fleet, config), obs)
    };
    let server = match bound {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot listen on {addr}: {e}");
            return ExitCode::from(EXIT_RPC);
        }
    };
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "serving a {nodes}-node {} fleet, seed {seed:#x} ({} drain); \
         submit with `nnrt submit {} <model>`, stop with `nnrt shutdown {}`",
        backend.name(),
        if hold { "on-shutdown" } else { "eager" },
        server.local_addr(),
        server.local_addr()
    );
    match server.join() {
        Some(report) => {
            if json {
                println!("{report}");
            } else {
                println!("{}", summarize_report(&report));
            }
            if let Some(path) = &events {
                write_sim_events(path, &obs);
            }
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("server stopped without a final report");
            ExitCode::from(EXIT_RPC)
        }
    }
}

/// Maps a client-side failure to an exit code, reporting it on stderr.
fn rpc_fail(what: &str, e: &ClientError) -> ExitCode {
    eprintln!("{what}: {e}");
    match e {
        ClientError::Rejected(frame) if frame.kind == ErrorKind::UnknownModel => {
            ExitCode::from(EXIT_UNKNOWN_MODEL)
        }
        _ => ExitCode::from(EXIT_RPC),
    }
}

/// `nnrt submit <addr> <model> [batch] [--steps n] [--priority p]
/// [--weight w] [--name s] [--no-retry]`.
fn run_submit(args: &[String]) -> ExitCode {
    let (Some(addr), Some(model)) = (args.first(), args.get(1)) else {
        eprintln!("submit needs <addr> <model>");
        return usage();
    };
    // Fail fast on typos without a round-trip; the server re-validates.
    if model_by_name(model, None).is_none() {
        eprintln!("unknown model '{model}'");
        return ExitCode::from(EXIT_UNKNOWN_MODEL);
    }
    let mut spec = SubmitSpec::new(model);
    let mut retry = true;
    let mut it = args.iter().skip(2);
    while let Some(arg) = it.next() {
        let mut flag = |name: &str| -> Option<&String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("{name} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--steps" => match flag("--steps").and_then(|s| s.parse().ok()) {
                Some(steps) => spec.steps = steps,
                None => return usage(),
            },
            "--priority" => match flag("--priority").and_then(|s| s.parse().ok()) {
                Some(p) => spec.priority = p,
                None => return usage(),
            },
            "--weight" => match flag("--weight").and_then(|s| s.parse().ok()) {
                Some(w) => spec.weight = w,
                None => return usage(),
            },
            "--name" => match flag("--name") {
                Some(name) => spec.name = name.clone(),
                None => return usage(),
            },
            "--no-retry" => retry = false,
            other => match other.parse() {
                Ok(batch) => spec.batch = batch,
                Err(_) => {
                    eprintln!("unexpected submit argument '{other}'");
                    return usage();
                }
            },
        }
    }
    let mut client = match RpcClient::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => return rpc_fail("connect", &e),
    };
    let submitted = if retry {
        client.submit_with_retry(&spec, &RetryPolicy::default())
    } else {
        client.submit(&spec)
    };
    match submitted {
        Ok(job_id) => {
            println!("submitted job {job_id}");
            ExitCode::SUCCESS
        }
        Err(e) => rpc_fail("submit", &e),
    }
}

/// `nnrt status <addr> [job_id]`: one job, or all of them.
fn run_status(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        eprintln!("status needs <addr>");
        return usage();
    };
    let mut client = match RpcClient::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => return rpc_fail("connect", &e),
    };
    let render = |s: &nnrt::serve::JobStatus| {
        format!(
            "{:>4}  {:16} {:12} {:9} {:>5}/{:<5} {}",
            s.id,
            s.name,
            s.model,
            format!("{:?}", s.phase).to_lowercase(),
            s.steps_done,
            s.steps,
            s.node.map_or("-".to_string(), |n| format!("node {n}"))
        )
    };
    match args.get(1).map(|s| s.parse::<u64>()) {
        Some(Ok(job_id)) => match client.status(job_id) {
            Ok(status) => {
                println!("{}", render(&status));
                ExitCode::SUCCESS
            }
            Err(e) => rpc_fail("status", &e),
        },
        Some(Err(_)) => {
            eprintln!("job id must be a number");
            usage()
        }
        None => match client.list_jobs() {
            Ok(jobs) => {
                println!(
                    "{:>4}  {:16} {:12} {:9} {:>5}/{:<5} node",
                    "id", "name", "model", "phase", "done", "steps"
                );
                for status in &jobs {
                    println!("{}", render(status));
                }
                ExitCode::SUCCESS
            }
            Err(e) => rpc_fail("status", &e),
        },
    }
}

/// `nnrt metrics <addr>`: scrape a listening server's metrics and print
/// the raw Prometheus-style text exposition (both clock domains).
fn run_metrics(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        eprintln!("metrics needs <addr>");
        return usage();
    };
    let mut client = match RpcClient::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => return rpc_fail("connect", &e),
    };
    match client.metrics() {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => rpc_fail("metrics", &e),
    }
}

/// `nnrt top <addr> [--once] [--interval <secs>]`: a periodic one-screen
/// live view of a listening fleet, rendered from its scraped exposition.
fn run_top(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        eprintln!("top needs <addr>");
        return usage();
    };
    let mut once = false;
    let mut interval = 2.0f64;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval" => match it.next().and_then(|s| s.parse().ok()) {
                Some(secs) if secs > 0.0 => interval = secs,
                _ => {
                    eprintln!("--interval needs a positive number of seconds");
                    return usage();
                }
            },
            other => {
                eprintln!("unexpected top argument '{other}'");
                return usage();
            }
        }
    }
    let mut client = match RpcClient::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => return rpc_fail("connect", &e),
    };
    loop {
        let text = match client.metrics() {
            Ok(text) => text,
            Err(e) => return rpc_fail("metrics", &e),
        };
        let exp = match nnrt::obs::parse_exposition(&text) {
            Ok(exp) => exp,
            Err(e) => {
                eprintln!("malformed exposition from {addr}: {e}");
                return ExitCode::from(EXIT_RPC);
            }
        };
        if !once {
            // Clear screen and home the cursor, like top(1).
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(addr, &exp));
        if once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// One screen of fleet state from a parsed exposition.
fn render_top(addr: &str, exp: &nnrt::obs::Exposition) -> String {
    use std::fmt::Write as _;
    let v = |name: &str| exp.value(name, &[]).unwrap_or(0.0);
    let phase = |p: &str| exp.value("nnrt_jobs", &[("phase", p)]).unwrap_or(0.0) as u64;
    let mut out = String::new();
    let _ = writeln!(out, "nnrt top — {addr}");
    let _ = writeln!(
        out,
        "jobs    queued {}  running {}  retrying {}  completed {}   queue depth {}",
        phase("queued"),
        phase("running"),
        phase("retrying"),
        phase("completed"),
        v("nnrt_queue_depth") as u64
    );
    for s in exp.all("nnrt_node_utilization", &[]) {
        let node = s.label("node").unwrap_or("?");
        let resident = exp
            .value("nnrt_node_resident_jobs", &[("node", node)])
            .unwrap_or(0.0) as u64;
        let clock = exp
            .value("nnrt_node_clock_seconds", &[("node", node)])
            .unwrap_or(0.0);
        let _ = writeln!(
            out,
            "node {node:>2}  util {:5.1}%  resident {resident}  clock {clock:.1}s",
            s.value * 100.0
        );
    }
    let _ = writeln!(
        out,
        "store   {} entries  hit rate {:.1}%  ({} hits / {} misses, {} evictions)",
        v("nnrt_store_entries") as u64,
        v("nnrt_store_hit_rate") * 100.0,
        v("nnrt_store_hits") as u64,
        v("nnrt_store_misses") as u64,
        v("nnrt_store_evictions") as u64
    );
    let durability = if v("nnrt_durability_disabled") > 0.0 {
        "DEGRADED"
    } else {
        "ok"
    };
    let _ = writeln!(
        out,
        "faults  retries {}  evictions {}  injected {}  durability {durability}",
        v("nnrt_retries_total") as u64,
        v("nnrt_evictions_total") as u64,
        exp.sum("nnrt_faults_injected_total", &[]) as u64
    );
    let total = exp.sum("nnrt_rpc_requests_total", &[]) as u64;
    let ok = exp.sum("nnrt_rpc_requests_total", &[("outcome", "ok")]) as u64;
    let _ = writeln!(
        out,
        "rpc     {total} request(s) ({ok} ok / {} not)",
        total - ok
    );
    out
}

/// `nnrt shutdown <addr> [--json]`: drain the server, print its report.
fn run_shutdown(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        eprintln!("shutdown needs <addr>");
        return usage();
    };
    let json = args.iter().any(|a| a == "--json");
    let mut client = match RpcClient::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => return rpc_fail("connect", &e),
    };
    match client.shutdown() {
        Ok(report) => {
            if json {
                println!("{report}");
            } else {
                println!("{}", summarize_report(&report));
            }
            ExitCode::SUCCESS
        }
        Err(e) => rpc_fail("shutdown", &e),
    }
}

/// A one-paragraph human summary of a [`nnrt::serve::FleetReport`] JSON
/// document (the report type is serialize-only, so this reads the fields
/// back through [`serde_json::Value`]).
fn summarize_report(report: &str) -> String {
    let Ok(v) = serde_json::from_str::<serde_json::Value>(report) else {
        return report.to_string();
    };
    let num = |key: &str| v.get(key).and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
    let jobs = v.get("jobs").and_then(|j| j.as_array()).map_or(0, Vec::len);
    format!(
        "fleet drained: {jobs} job(s), makespan {:.3}s, {:.2} steps/s; \
         store {} hits / {} misses, {} entries; {} rejected",
        num("makespan_secs"),
        num("steps_per_sec"),
        num("store_hits") as u64,
        num("store_misses") as u64,
        num("store_entries") as u64,
        num("rejected") as u64,
    )
}

fn run_model_command(cmd: &str, spec: &ModelSpec) {
    let catalog = OpCatalog::new(&spec.graph);
    let cost = KnlCostModel::knl();
    match cmd {
        "compare" => {
            let rec = TfExecutor::new(TfExecutorConfig::recommendation()).run_step(
                &spec.graph,
                &catalog,
                &cost,
            );
            let rt = Runtime::prepare(&spec.graph, cost, RuntimeConfig::default());
            let ours = rt.run_step(&spec.graph);
            println!(
                "{} (batch {}): {} ops",
                spec.name,
                spec.batch,
                spec.graph.len()
            );
            println!("  recommendation (1, 68): {:8.1} ms", rec.total_secs * 1e3);
            println!(
                "  strategies 1-4:         {:8.1} ms   ({:.2}x)",
                ours.total_secs * 1e3,
                rec.total_secs / ours.total_secs
            );
            println!("  top kinds (ours):");
            for &(kind, secs, n) in ours.top_kinds(5) {
                println!("    {:24} {:8.1} ms  x{n}", kind.to_string(), secs * 1e3);
            }
        }
        "profile" => {
            let rt = Runtime::prepare(&spec.graph, cost, RuntimeConfig::default());
            println!(
                "{}: profiled {} keys in ~{} steps ({} measurements)",
                spec.name,
                catalog.keys().len(),
                rt.model().profiling_steps,
                rt.model().measurements
            );
            let mut rows: Vec<_> = catalog
                .keys()
                .iter()
                .filter_map(|key| rt.model().best(key).map(|b| (key.clone(), b)))
                .collect();
            rows.sort_by(|a, b| b.1 .2.partial_cmp(&a.1 .2).unwrap());
            for (key, (threads, mode, secs)) in rows.iter().take(15) {
                println!(
                    "  {:24} {:18} -> {:2} threads ({:?}), {:9.3} ms",
                    key.0.to_string(),
                    key.1.to_string(),
                    threads,
                    mode,
                    secs * 1e3
                );
            }
            if rows.len() > 15 {
                println!("  ... and {} more keys", rows.len() - 15);
            }
        }
        "grid" => {
            let rec = TfExecutor::new(TfExecutorConfig::recommendation())
                .run_step(&spec.graph, &catalog, &cost)
                .total_secs;
            println!("{}: speedup over (1, 68) = {:.1} ms", spec.name, rec * 1e3);
            println!("{:>6} {:>6} {:>9}", "inter", "intra", "speedup");
            for inter in [1u32, 2, 4] {
                for intra in [16u32, 34, 68, 136] {
                    let t = TfExecutor::new(TfExecutorConfig {
                        inter_op: inter,
                        intra_op: intra,
                    })
                    .run_step(&spec.graph, &catalog, &cost)
                    .total_secs;
                    println!("{inter:>6} {intra:>6} {:>8.2}x", rec / t);
                }
            }
        }
        "trace" => {
            let mut rt = Runtime::prepare(&spec.graph, cost, RuntimeConfig::default());
            rt.record_trace(true);
            let report = rt.run_step(&spec.graph);
            let json = nnrt::sched::export_chrome_trace(&spec.graph, &report.timings);
            let path = format!("{}_trace.json", spec.name.to_lowercase().replace('-', "_"));
            std::fs::write(&path, json).expect("write trace file");
            println!(
                "{}: wrote {path} ({} ops, step {:.1} ms) — open in chrome://tracing or Perfetto",
                spec.name,
                report.timings.len(),
                report.total_secs * 1e3
            );
        }
        "plan" => {
            let rt = Runtime::prepare(&spec.graph, cost, RuntimeConfig::default());
            println!(
                "{}: Strategy 1+2 thread plan (per kind, largest instance):",
                spec.name
            );
            let mut seen = std::collections::BTreeSet::new();
            for (key, &(threads, mode)) in rt.catalog().keys().iter().zip(rt.planned()) {
                if !key.0.is_tunable() || !seen.insert(key.0) {
                    continue;
                }
                println!(
                    "  {:24} -> {threads:2} threads ({mode:?})",
                    key.0.to_string()
                );
            }
            println!("  (non-MKL kinds stay at the framework default of 68)");
        }
        _ => unreachable!(),
    }
}
