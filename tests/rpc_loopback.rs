//! Loopback integration tests of the `nnrt-rpc` front-end: concurrent
//! clients over real TCP, typed saturation backpressure with honored retry
//! hints, and the determinism contract — a job mix submitted over the wire
//! produces a fleet report byte-identical to the in-process `Fleet` API.

use nnrt::rpc::{
    ClientError, DrainPolicy, ErrorKind, FleetServer, RpcClient, ServerConfig, SubmitSpec,
};
use nnrt::serve::{Fleet, FleetConfig, JobPhase, JobSpec};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A spec for `model` at batch 4 (small graphs keep the simulated fleet
/// quick) running `steps` training steps.
fn spec(model: &str, steps: u32) -> SubmitSpec {
    let mut s = SubmitSpec::new(model);
    s.batch = 4;
    s.steps = steps;
    s
}

#[test]
fn two_concurrent_clients_submit_and_query() {
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: FleetConfig {
                seed: 0x5E21E,
                ..FleetConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind");
    let addr = server.local_addr();

    // Two clients connected at once, each holding its own socket.
    let ids: Vec<u64> = ["dcgan", "lstm"]
        .map(|model| {
            thread::spawn(move || {
                let mut client = RpcClient::connect(addr).expect("connect");
                client.submit(&spec(model, 2)).expect("submit")
            })
        })
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(
        ids.iter().collect::<BTreeSet<_>>().len(),
        2,
        "concurrent submissions get distinct job ids"
    );

    let mut client = RpcClient::connect(addr).expect("connect");
    for &id in &ids {
        let status = client.status(id).expect("status");
        assert_eq!(status.id, id);
        assert!(
            status.name.starts_with(&status.model),
            "server-assigned names embed the model: {}",
            status.name
        );
    }
    let jobs = client.list_jobs().expect("list");
    assert_eq!(jobs.len(), 2);
    assert!(jobs.windows(2).all(|w| w[0].id < w[1].id), "sorted by id");

    // Unknown ids and unknown models come back as typed refusals.
    match client.status(999) {
        Err(ClientError::Rejected(frame)) => assert_eq!(frame.kind, ErrorKind::UnknownJob),
        other => panic!("expected UnknownJob, got {other:?}"),
    }
    match client.submit(&spec("vgg-999", 1)) {
        Err(ClientError::Rejected(frame)) => assert_eq!(frame.kind, ErrorKind::UnknownModel),
        other => panic!("expected UnknownModel, got {other:?}"),
    }

    let report = client.shutdown().expect("shutdown");
    let parsed: serde_json::Value = serde_json::from_str(&report).expect("report is JSON");
    assert_eq!(parsed["jobs"].as_array().expect("jobs").len(), 2);
    assert_eq!(
        server.join().as_deref(),
        Some(report.as_str()),
        "join returns the same report the Bye frame carried"
    );
}

#[test]
fn saturated_submit_returns_a_typed_frame_with_a_positive_hint() {
    // OnShutdown holds the queue, so capacity 1 saturates deterministically.
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: FleetConfig {
                queue_capacity: 1,
                ..FleetConfig::default()
            },
            drain: DrainPolicy::OnShutdown,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind");
    let mut client = RpcClient::connect(server.local_addr()).expect("connect");

    client.submit(&spec("dcgan", 2)).expect("first fits");
    match client.submit(&spec("lstm", 2)) {
        Err(ClientError::Rejected(frame)) => {
            assert_eq!(frame.kind, ErrorKind::Saturated);
            let hint = frame.retry_after_secs.expect("saturation carries a hint");
            assert!(hint > 0.0, "retry hint must be positive, got {hint}");
            assert!(
                frame.message.contains("saturated"),
                "message names the condition: {}",
                frame.message
            );
        }
        other => panic!("expected Saturated, got {other:?}"),
    }

    let report = client.shutdown().expect("shutdown");
    let parsed: serde_json::Value = serde_json::from_str(&report).expect("report is JSON");
    assert_eq!(parsed["jobs"].as_array().expect("jobs").len(), 1);
    assert_eq!(parsed["rejected"].as_u64(), Some(1));
    drop(server);
}

#[test]
fn onshutdown_report_is_byte_identical_to_the_in_process_fleet() {
    let config = FleetConfig {
        node_count: 2,
        seed: 0xD15C0,
        ..FleetConfig::default()
    };
    let mix = [
        ("dcgan", 2u32),
        ("lstm", 3),
        ("dcgan", 2),
        ("transformer", 1),
    ];

    // Over the wire, holding all work until shutdown.
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: config.clone(),
            drain: DrainPolicy::OnShutdown,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind");
    let mut client = RpcClient::connect(server.local_addr()).expect("connect");
    for (model, steps) in mix {
        client.submit(&spec(model, steps)).expect("submit");
    }
    let wire_report = client.shutdown().expect("shutdown");

    // The same mix through the in-process API, replicating the server's
    // `{model}-{id}` naming.
    let mut fleet = Fleet::new(config);
    for (i, (model, steps)) in mix.into_iter().enumerate() {
        let model_spec = nnrt::models::by_name(model, Some(4)).expect("known model");
        fleet
            .submit(JobSpec {
                name: format!("{model}-{i}"),
                model: model.to_string(),
                graph: model_spec.graph,
                steps,
                priority: 0,
                weight: 1.0,
            })
            .expect("submit");
    }
    let local_report = fleet.run().to_json();

    assert_eq!(
        wire_report, local_report,
        "the RPC path must not perturb the simulation"
    );
}

#[test]
fn connection_cap_rejects_with_typed_saturated_frame() {
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // The first client claims the only slot (a completed request proves the
    // accept loop registered it).
    let mut pinned = RpcClient::connect(addr).expect("connect");
    pinned.list_jobs().expect("first connection is served");

    // The second connection is accepted just long enough to receive one
    // typed Saturated frame with a retry hint.
    let mut rejected = RpcClient::connect(addr).expect("tcp connect still succeeds");
    match rejected.list_jobs() {
        Err(ClientError::Rejected(frame)) => {
            assert_eq!(frame.kind, ErrorKind::Saturated);
            assert!(
                frame.retry_after_secs.unwrap_or(0.0) > 0.0,
                "cap rejections carry a positive retry hint"
            );
        }
        other => panic!("over-cap connection must be rejected, got {other:?}"),
    }

    // Dropping the pinned connection frees the slot for a new client.
    drop(pinned);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut retry = RpcClient::connect(addr).expect("connect");
        if retry.list_jobs().is_ok() {
            retry.shutdown().expect("shutdown");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "a freed slot must admit the next connection"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn idle_connection_is_dropped_after_the_read_timeout() {
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // A silent client: no frame ever sent. The server must hang up on its
    // own instead of pinning the reader thread forever.
    let mut idle = std::net::TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut buf = [0u8; 1];
    let started = Instant::now();
    let hung_up = match std::io::Read::read(&mut idle, &mut buf) {
        Ok(0) => true, // clean EOF
        Err(e)
            if e.kind() != std::io::ErrorKind::WouldBlock
                && e.kind() != std::io::ErrorKind::TimedOut =>
        {
            true
        } // reset
        other => panic!("server must drop the idle connection, got {other:?}"),
    };
    assert!(hung_up);
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "the hangup must come from the idle timeout, not the reply timeout"
    );

    // A live client on the same server still works afterwards.
    let mut client = RpcClient::connect(addr).expect("connect");
    client.list_jobs().expect("live connections are unaffected");
    client.shutdown().expect("shutdown");
}

#[test]
fn saturation_under_concurrency_accounts_every_job_exactly_once() {
    // One slot resident, one slot queued: eight racing submitters must see
    // backpressure, honor the hints, and still all land.
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: FleetConfig {
                node_count: 1,
                max_jobs_per_node: 1,
                queue_capacity: 1,
                seed: 0xCAFE,
                ..FleetConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind");
    let addr = server.local_addr();
    let queue_rejections = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let queue_rejections = Arc::clone(&queue_rejections);
            thread::spawn(move || {
                let mut client = RpcClient::connect(addr).expect("connect");
                let mut ids = Vec::new();
                for j in 0..2 {
                    let model = if (t + j) % 2 == 0 { "dcgan" } else { "lstm" };
                    let deadline = Instant::now() + Duration::from_secs(60);
                    loop {
                        match client.submit(&spec(model, 3)) {
                            Ok(id) => {
                                ids.push(id);
                                break;
                            }
                            Err(ClientError::Rejected(frame))
                                if frame.kind == ErrorKind::Saturated =>
                            {
                                // Every rejection — full admission queue
                                // or connection cap — must carry a usable
                                // wait.
                                let hint =
                                    frame.retry_after_secs.expect("saturation carries a hint");
                                assert!(hint > 0.0, "hint must be positive, got {hint}");
                                if frame.message.contains("admission queue") {
                                    queue_rejections.fetch_add(1, Ordering::SeqCst);
                                }
                                assert!(
                                    Instant::now() < deadline,
                                    "honored retries must eventually land"
                                );
                                // The hint is simulated seconds — an upper
                                // bound, not a wall-clock wait.
                                thread::sleep(Duration::from_secs_f64(hint.min(0.01)));
                            }
                            Err(other) => panic!("unexpected submit failure: {other}"),
                        }
                    }
                }
                ids
            })
        })
        .collect();

    let mut ids: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("submitter thread"))
        .collect();
    ids.sort_unstable();
    assert_eq!(ids.len(), 8, "every honored retry completes");
    assert_eq!(
        ids,
        (0..8).collect::<Vec<u64>>(),
        "rejected attempts must not burn job ids"
    );

    let mut client = RpcClient::connect(addr).expect("connect");
    let report = client.shutdown().expect("shutdown");
    let parsed: serde_json::Value = serde_json::from_str(&report).expect("report is JSON");
    let jobs = parsed["jobs"].as_array().expect("jobs");
    assert_eq!(jobs.len(), 8, "the final report accounts for every job");
    let reported: BTreeSet<u64> = jobs
        .iter()
        .map(|j| j["id"].as_u64().expect("job id"))
        .collect();
    assert_eq!(reported.len(), 8, "each job appears exactly once");
    assert_eq!(
        parsed["rejected"].as_u64(),
        Some(queue_rejections.load(Ordering::SeqCst)),
        "the fleet counts exactly the admission rejections clients saw"
    );
    drop(server);
}

#[test]
fn metrics_and_events_account_every_request_kind() {
    let server = FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: FleetConfig {
                seed: 0x0B5,
                ..FleetConfig::default()
            },
            drain: DrainPolicy::OnShutdown,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind");
    let mut client = RpcClient::connect(server.local_addr()).expect("connect");

    let id = client.submit(&spec("dcgan", 1)).expect("submit");
    match client.status(999) {
        Err(ClientError::Rejected(frame)) => assert_eq!(frame.kind, ErrorKind::UnknownJob),
        other => panic!("expected UnknownJob, got {other:?}"),
    }

    // Two scrapes: the first proves the earlier requests were accounted;
    // the second proves the scrape itself was.
    let _first = client.metrics().expect("metrics");
    let text = client.metrics().expect("metrics");
    let exp = nnrt::obs::parse_exposition(&text).expect("exposition parses");
    let req = |kind: &str, outcome: &str| {
        exp.value(
            "nnrt_rpc_requests_total",
            &[("clock", "wall"), ("kind", kind), ("outcome", outcome)],
        )
    };
    assert_eq!(req("submit", "ok"), Some(1.0));
    assert_eq!(
        req("status", "error"),
        Some(1.0),
        "typed errors are counted"
    );
    assert_eq!(req("metrics", "ok"), Some(1.0));
    // Per-kind latency histograms: one submit observation, finite and
    // accounted in the +Inf bucket.
    assert_eq!(
        exp.value("nnrt_rpc_latency_seconds_count", &[("kind", "submit")]),
        Some(1.0)
    );
    assert_eq!(
        exp.value(
            "nnrt_rpc_latency_seconds_bucket",
            &[("kind", "submit"), ("le", "+Inf")]
        ),
        Some(1.0)
    );
    // The same scrape carries the sim domain too.
    assert_eq!(
        exp.value("nnrt_jobs_submitted_total", &[("clock", "sim")]),
        Some(1.0)
    );
    assert_eq!(
        exp.value("nnrt_queue_depth", &[("clock", "sim")]),
        Some(1.0)
    );

    // The event stream pairs with the counters: a sim Admit for the job,
    // wall RpcRequest records for each exchange.
    let events = client.events().expect("events");
    assert!(events.iter().any(|e| e.clock == nnrt::obs::Clock::Sim
        && e.kind == nnrt::obs::EventKind::Admit
        && e.job == Some(id)));
    let rpc_details: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == nnrt::obs::EventKind::RpcRequest)
        .map(|e| e.detail.as_str())
        .collect();
    assert!(rpc_details.contains(&"submit: ok"), "{rpc_details:?}");
    assert!(rpc_details.contains(&"status: error"), "{rpc_details:?}");
    assert!(rpc_details.contains(&"metrics: ok"), "{rpc_details:?}");
    // Wall seq numbers are dense within the wall domain.
    let wall_seqs: Vec<u64> = events
        .iter()
        .filter(|e| e.clock == nnrt::obs::Clock::Wall)
        .map(|e| e.seq)
        .collect();
    assert!(wall_seqs.windows(2).all(|w| w[1] == w[0] + 1));

    client.shutdown().expect("shutdown");
}

#[test]
fn eager_service_completes_jobs_between_requests() {
    let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = RpcClient::connect(server.local_addr()).expect("connect");
    let id = client.submit(&spec("lstm", 1)).expect("submit");

    // Eager drain runs the fleet while no commands are pending, so the job
    // reaches Completed without any shutdown.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(id).expect("status");
        if status.phase == JobPhase::Completed {
            assert_eq!(status.steps_done, status.steps);
            assert!(status.node.is_some(), "completed jobs report their node");
            break;
        }
        assert!(Instant::now() < deadline, "job must complete eagerly");
        thread::sleep(Duration::from_millis(10));
    }

    // The profile store is live mid-service too.
    let snapshot = client.snapshot().expect("snapshot");
    assert!(snapshot.entries > 0, "profiling populated the store");
    assert!(snapshot.misses > 0, "the cold job missed first");
    client.shutdown().expect("shutdown");
}
