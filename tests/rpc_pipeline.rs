//! Pipelining-semantics tests of the RPC server's reactor: a connection
//! that sends K frames without awaiting responses gets K responses back in
//! request order, interleaved connections never cross-deliver, a
//! mid-pipeline typed error doesn't poison the frames behind it, a pipeline
//! deeper than the server's per-turn cap still drains completely, one
//! connection's long burst does not hold another off, and a client that
//! never reads is held to a bounded outbox.
//!
//! These drive raw `TcpStream`s (not `RpcClient`, which is strictly
//! request/response) so the wire-level burst is real: all requests are
//! written before any response is read.

use nnrt::rpc::{
    decode, encode, frame_bytes, read_frame, write_frame, DrainPolicy, ErrorKind, FleetServer,
    Request, Response, ServerConfig, SubmitSpec,
};
use nnrt::serve::FleetConfig;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn spec(model: &str, name: &str) -> SubmitSpec {
    let mut s = SubmitSpec::new(model);
    s.batch = 4;
    s.steps = 1;
    s.name = name.to_string();
    s
}

fn server(pipeline_depth: usize) -> FleetServer {
    FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: FleetConfig {
                node_count: 2,
                queue_capacity: 256,
                seed: 0x91BE,
                ..FleetConfig::default()
            },
            drain: DrainPolicy::OnShutdown,
            pipeline_depth,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind")
}

/// Writes every request as one burst, then reads exactly as many responses.
fn burst(stream: &mut TcpStream, requests: &[Request]) -> Vec<Response> {
    for request in requests {
        write_frame(stream, &encode(request)).expect("write");
    }
    stream.flush().expect("flush");
    requests
        .iter()
        .map(|_| {
            let payload = read_frame(stream).expect("read");
            decode::<Response>(&payload).expect("decode")
        })
        .collect()
}

fn connect(server: &FleetServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream
}

#[test]
fn a_burst_of_pipelined_submits_answers_in_request_order() {
    let server = server(16);
    let mut stream = connect(&server);

    let requests: Vec<Request> = (0..8)
        .map(|i| Request::Submit(spec("dcgan", &format!("burst-{i}"))))
        .collect();
    let responses = burst(&mut stream, &requests);

    // In-order responses mean in-order job ids: the i-th submit frame on
    // the wire is the i-th admission.
    for (i, response) in responses.iter().enumerate() {
        match response {
            Response::Submitted { job_id } => {
                assert_eq!(*job_id, i as u64, "response {i} out of request order")
            }
            other => panic!("submit {i} must be admitted, got {other:?}"),
        }
    }

    // The names confirm the ordering end to end, not just the id counter.
    let jobs = match burst(&mut stream, &[Request::ListJobs]).remove(0) {
        Response::Jobs(jobs) => jobs,
        other => panic!("expected jobs, got {other:?}"),
    };
    let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
    let expected: Vec<String> = (0..8).map(|i| format!("burst-{i}")).collect();
    assert_eq!(
        names,
        expected.iter().map(String::as_str).collect::<Vec<_>>()
    );
}

#[test]
fn a_mid_pipeline_typed_error_does_not_poison_later_frames() {
    let server = server(16);
    let mut stream = connect(&server);

    let responses = burst(
        &mut stream,
        &[
            Request::Submit(spec("dcgan", "ok-0")),
            Request::Submit(spec("no-such-model", "bad")),
            Request::Submit(spec("lstm", "ok-1")),
            Request::Status { job_id: 999 },
            Request::ListJobs,
        ],
    );

    match &responses[0] {
        Response::Submitted { job_id } => assert_eq!(*job_id, 0),
        other => panic!("first submit must land, got {other:?}"),
    }
    match &responses[1] {
        Response::Error(frame) => assert_eq!(frame.kind, ErrorKind::UnknownModel),
        other => panic!("bad model must be a typed error, got {other:?}"),
    }
    match &responses[2] {
        Response::Submitted { job_id } => {
            assert_eq!(*job_id, 1, "the error must not consume a job id")
        }
        other => panic!("the submit behind the error must land, got {other:?}"),
    }
    match &responses[3] {
        Response::Error(frame) => assert_eq!(frame.kind, ErrorKind::UnknownJob),
        other => panic!("unknown id must be a typed error, got {other:?}"),
    }
    match &responses[4] {
        Response::Jobs(jobs) => {
            assert_eq!(jobs.len(), 2, "exactly the two good submits exist");
        }
        other => panic!("list_jobs behind two errors must answer, got {other:?}"),
    }
}

#[test]
fn interleaved_connections_never_cross_deliver() {
    let server = server(16);
    let mut a = connect(&server);
    let mut b = connect(&server);

    // Interleave at the socket level: a frame on A, a frame on B, …, with
    // nothing read until both bursts are fully written.
    const K: usize = 6;
    for i in 0..K {
        write_frame(
            &mut a,
            &encode(&Request::Submit(spec("dcgan", &format!("a-{i}")))),
        )
        .expect("write a");
        write_frame(
            &mut b,
            &encode(&Request::Submit(spec("lstm", &format!("b-{i}")))),
        )
        .expect("write b");
    }

    let read_all = |stream: &mut TcpStream| -> Vec<(u64, String)> {
        let ids: Vec<u64> = (0..K)
            .map(|_| {
                let payload = read_frame(stream).expect("read");
                match decode::<Response>(&payload).expect("decode") {
                    Response::Submitted { job_id } => job_id,
                    other => panic!("expected an admission, got {other:?}"),
                }
            })
            .collect();
        ids.into_iter()
            .map(|id| {
                // Resolve each id back to its job name through a fresh
                // request — the server's view, not the client's assumption.
                write_frame(stream, &encode(&Request::Status { job_id: id })).expect("write");
                let payload = read_frame(stream).expect("read");
                match decode::<Response>(&payload).expect("decode") {
                    Response::Job(status) => (id, status.name),
                    other => panic!("expected a status, got {other:?}"),
                }
            })
            .collect()
    };
    let a_jobs = read_all(&mut a);
    let b_jobs = read_all(&mut b);

    // Each connection got exactly its own submissions, in its own order.
    let a_names: Vec<&str> = a_jobs.iter().map(|(_, n)| n.as_str()).collect();
    let b_names: Vec<&str> = b_jobs.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(
        a_names,
        (0..K).map(|i| format!("a-{i}")).collect::<Vec<_>>(),
        "connection A saw a foreign or reordered response"
    );
    assert_eq!(
        b_names,
        (0..K).map(|i| format!("b-{i}")).collect::<Vec<_>>(),
        "connection B saw a foreign or reordered response"
    );

    // And the id sets are disjoint and jointly complete.
    let mut all_ids: Vec<u64> = a_jobs.iter().chain(&b_jobs).map(|(id, _)| *id).collect();
    all_ids.sort_unstable();
    assert_eq!(all_ids, (0..2 * K as u64).collect::<Vec<_>>());
}

#[test]
fn a_burst_deeper_than_the_pipeline_cap_still_drains_in_order() {
    // Depth 2: at most two requests in flight, the other eight wait in
    // kernel/userspace buffers until slots free. The client sees nothing
    // but a complete, ordered response stream.
    let server = server(2);
    let mut stream = connect(&server);

    let requests: Vec<Request> = (0..10)
        .map(|i| Request::Submit(spec("dcgan", &format!("deep-{i}"))))
        .collect();
    let responses = burst(&mut stream, &requests);
    assert_eq!(responses.len(), 10);
    for (i, response) in responses.iter().enumerate() {
        match response {
            Response::Submitted { job_id } => assert_eq!(*job_id, i as u64),
            other => panic!("deep burst frame {i} must land, got {other:?}"),
        }
    }

    let report = {
        let payload = {
            write_frame(&mut stream, &encode(&Request::Shutdown)).expect("write");
            read_frame(&mut stream).expect("read")
        };
        match decode::<Response>(&payload).expect("decode") {
            Response::Bye { report } => report,
            other => panic!("expected the final report, got {other:?}"),
        }
    };
    let parsed: serde_json::Value = serde_json::from_str(&report).expect("report is JSON");
    assert_eq!(parsed["jobs"].as_array().expect("jobs").len(), 10);
    assert!(server.join().is_some());
}

/// `n` copies of `request`, framed back to back as one write.
fn frames(request: &Request, n: usize) -> Vec<u8> {
    frame_bytes(&encode(request)).repeat(n)
}

#[test]
fn a_long_burst_on_one_connection_does_not_hold_off_another() {
    let server = server(16);
    let mut slow = connect(&server);
    let mut long = connect(&server);
    let mut other = connect(&server);
    // All three connections are registered, in this slot order, before the
    // burst starts; a turn serves ready connections in slot order.
    for stream in [&mut slow, &mut long, &mut other] {
        burst(stream, &[Request::ListJobs]);
    }

    // While the reactor builds an uncached graph for `slow` (job 0), the
    // other connection's submit (job 1) and then the burst arrive. The next
    // turn serves the burst first, but only one budget's worth of it. Every
    // burst frame asks after the other connection's job.
    const N: usize = 2000;
    write_frame(
        &mut slow,
        &encode(&Request::Submit(spec("resnet50", "slow"))),
    )
    .expect("slow");
    write_frame(
        &mut other,
        &encode(&Request::Submit(spec("dcgan", "other"))),
    )
    .expect("other");
    long.write_all(&frames(&Request::Status { job_id: 1 }, N))
        .expect("burst");
    let submitted = decode::<Response>(&read_frame(&mut other).expect("read")).expect("decode");
    assert_eq!(submitted, Response::Submitted { job_id: 1 });

    let answers: Vec<Response> = (0..N)
        .map(|_| decode(&read_frame(&mut long).expect("read")).expect("decode"))
        .collect();
    // Unknown until the submit is handled, found from then on: the other
    // connection's request was answered before this connection's last.
    let found = answers
        .iter()
        .position(|r| matches!(r, Response::Job(_)))
        .expect("the submit must be handled before the burst's last frame");
    for (i, answer) in answers.iter().enumerate() {
        match answer {
            Response::Error(frame) if i < found => assert_eq!(frame.kind, ErrorKind::UnknownJob),
            Response::Job(status) if i >= found => assert_eq!(status.name, "other"),
            other => panic!("status {i} (job found from {found}) answered {other:?}"),
        }
    }
}

#[test]
fn a_client_that_never_reads_is_held_to_a_bounded_outbox() {
    /// The outbox high-water mark (`conn.rs`), at which parsing stops.
    const HIGH_WATER: f64 = 256.0 * 1024.0;
    let server = server(16);
    let mut hog = connect(&server);
    let mut other = connect(&server);

    // Two hundred queued jobs make each ListJobs answer tens of KiB.
    let submits: Vec<Request> = (0..200)
        .map(|i| Request::Submit(spec("dcgan", &format!("job-{i}"))))
        .collect();
    burst(&mut other, &submits);
    write_frame(&mut other, &encode(&Request::ListJobs)).expect("write");
    let answer_bytes = (read_frame(&mut other).expect("read").len() + 5) as f64;

    // Ask for 16 MiB of answers — far more than the socket buffers hold —
    // and never read them.
    let n = (16.0 * 1024.0 * 1024.0 / answer_bytes).ceil() as usize;
    hog.write_all(&frames(&Request::ListJobs, n))
        .expect("write burst");

    // The other connection is still served, and the server's outbox stays
    // within one answer of the high-water mark while the hog's answers
    // back up to it.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let text = match burst(&mut other, &[Request::Metrics]).remove(0) {
            Response::Metrics { text } => text,
            other => panic!("expected metrics, got {other:?}"),
        };
        let exp = nnrt::obs::parse_exposition(&text).expect("exposition parses");
        let outbox = exp.value("nnrt_rpc_outbox_bytes", &[]).unwrap_or(0.0);
        assert!(
            outbox < HIGH_WATER + answer_bytes,
            "outbox {outbox} B passed the high-water mark by more than one {answer_bytes} B answer"
        );
        if outbox >= HIGH_WATER {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the hog's answers never backed up (outbox {outbox} B)"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
