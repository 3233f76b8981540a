//! Sustained-load benchmark of the event-loop RPC server: N concurrent
//! pipelined clients in a closed loop against a `FleetServer`, reporting
//! p50/p99 submit latency and sustained jobs/sec at 256/1024/2048
//! connections.
//!
//! The load generator is itself a single-threaded event loop over
//! `nnrt_rpc::poll` — one thread drives every client socket, the mirror
//! image of the server under test, so the machine's cores go to the server
//! rather than to thousands of generator threads. Each connection keeps a
//! fixed number of submit frames in flight (closed-loop pipelining),
//! records a latency sample per response during the measure window, and on
//! a typed `Saturated` bounce backs off through the seeded
//! decorrelated-jitter stream (`JitterBackoff`, seed = connection index)
//! exactly as a real client herd should.
//!
//! The warmup ends early once it has admitted half of `ADMIT_CAP`, so a
//! server fast enough to reach the cap inside the warmup still leaves the
//! measure window half the cap to admit; the table's warmup column marks
//! such a sweep `(cut)`.
//!
//! Sweeps run against a fresh in-process server (on-shutdown drain: the
//! measurement isolates the RPC path — framing, the poller, request
//! handling, admission — from simulated execution). `--addr HOST:PORT`
//! switches to an external server, which is how `ci.sh` smokes the
//! release binary.
//!
//! Usage (all flags optional):
//!   cargo bench --bench rpc_load -- [--connections 256,1024,2048]
//!     [--pipeline 4] [--warmup 0.5] [--duration 3]
//!     [--addr HOST:PORT] [--no-record]

use nnrt_bench::{ExperimentRecord, Table};
use nnrt_rpc::poll::{Poller, READABLE, WRITABLE};
use nnrt_rpc::{
    decode, encode, frame_bytes, frame_from_buf, DrainPolicy, ErrorKind, FleetServer,
    JitterBackoff, Request, Response, RetryPolicy, RpcClient, ServerConfig, SubmitSpec,
};
use nnrt_serve::FleetConfig;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Per-sweep ceiling on *admitted* jobs (admissions plus frames still in
/// flight), bounding the fleet's queue growth no matter how fast the
/// server admits. Saturated bounces create no job and don't count — under
/// heavy backpressure the closed loop keeps retrying for the whole window
/// instead of burning the cap on rejections.
const ADMIT_CAP: u64 = 22_000;

/// How long the end-of-sweep drain waits for in-flight responses.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

struct Args {
    connections: Vec<usize>,
    pipeline: usize,
    warmup: f64,
    duration: f64,
    addr: Option<String>,
    record: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        connections: vec![256, 1024, 2048],
        pipeline: 4,
        warmup: 0.5,
        duration: 3.0,
        addr: None,
        record: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connections" => {
                let list = it.next().expect("--connections takes a list");
                args.connections = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("connection count"))
                    .collect();
            }
            "--pipeline" => {
                args.pipeline = it
                    .next()
                    .expect("--pipeline takes a depth")
                    .parse()
                    .unwrap()
            }
            "--warmup" => args.warmup = it.next().expect("--warmup takes seconds").parse().unwrap(),
            "--duration" => {
                args.duration = it
                    .next()
                    .expect("--duration takes seconds")
                    .parse()
                    .unwrap()
            }
            "--addr" => args.addr = Some(it.next().expect("--addr takes HOST:PORT")),
            "--no-record" => args.record = false,
            _ => {} // cargo may pass harness flags; ignore anything unknown
        }
    }
    args.pipeline = args.pipeline.max(1);
    args
}

/// One generator-side connection: a pipelined closed loop.
struct LoadConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Send timestamps of in-flight submits, FIFO — responses come back in
    /// request order, so the front timestamp always matches the next frame.
    in_flight: VecDeque<Instant>,
    backoff: JitterBackoff,
    sleep_until: Option<Instant>,
    registered: u8,
    broken: bool,
    ok: u64,
    rejected: u64,
    errors: u64,
}

struct SweepResult {
    connected: usize,
    ok: u64,
    rejected: u64,
    errors: u64,
    measured_ok: u64,
    jobs_per_sec: f64,
    /// Whether `ADMIT_CAP` stopped submissions before the window closed.
    capped: bool,
    /// Seconds of warmup actually run, and whether half the cap cut it.
    warmup_secs: f64,
    warmup_cut: bool,
    p50_us: f64,
    p99_us: f64,
}

/// Drives `n` pipelined connections against `addr` for
/// `warmup + duration` seconds; latency samples come only from the
/// measure window.
fn sweep(addr: SocketAddr, n: usize, pipeline: usize, warmup: f64, duration: f64) -> SweepResult {
    let submit_frame = {
        let mut spec = SubmitSpec::new("dcgan");
        spec.batch = 4;
        spec.steps = 1;
        frame_bytes(&encode(&Request::Submit(spec)))
    };
    let backoff_policy = RetryPolicy {
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(250),
        ..RetryPolicy::default()
    };

    let mut poller = Poller::new().expect("poller");
    let mut conns: Vec<LoadConn> = Vec::with_capacity(n);
    for i in 0..n {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nonblocking(true).expect("nonblocking");
        let _ = stream.set_nodelay(true);
        poller
            .register(stream.as_raw_fd(), i, READABLE)
            .expect("register");
        conns.push(LoadConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            in_flight: VecDeque::new(),
            backoff: JitterBackoff::with_seed(&backoff_policy, i as u64),
            sleep_until: None,
            registered: READABLE,
            broken: false,
            ok: 0,
            rejected: 0,
            errors: 0,
        });
    }
    let connected = conns.len();

    // The warmup clock starts at the *first response*, not at connect time:
    // the server's cold start (first-submit graph build, cache warm) belongs
    // to neither the warmup nor the measure window.
    let started = Instant::now();
    let hard_deadline = started + Duration::from_secs(60);
    let mut clock_base: Option<Instant> = None;
    let mut measure_start = started + Duration::from_secs(3600);
    let mut measure_end = measure_start;
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut measured_ok = 0u64;
    // The last in-window response, and when `ADMIT_CAP` stopped submits.
    let mut last_measured: Option<Instant> = None;
    let mut cap_hit: Option<Instant> = None;
    let mut admitted = 0u64;
    let mut warmup_cut = false;
    let mut total_in_flight = 0u64;
    let mut draining = false;

    let mut events = Vec::new();
    let mut read_chunk = [0u8; 64 * 1024];
    loop {
        let now = Instant::now();
        if now >= measure_end || now >= hard_deadline {
            draining = true;
        }
        if draining
            && (conns.iter().all(|c| c.in_flight.is_empty() || c.broken)
                || now >= measure_end + DRAIN_GRACE
                || now >= hard_deadline + DRAIN_GRACE)
        {
            break;
        }

        // Top up every awake connection's pipeline (none while draining).
        for conn in conns.iter_mut() {
            if conn.broken || draining {
                continue;
            }
            if let Some(until) = conn.sleep_until {
                if now < until {
                    continue;
                }
                conn.sleep_until = None;
            }
            while conn.in_flight.len() < pipeline && admitted + total_in_flight < ADMIT_CAP {
                conn.wbuf.extend_from_slice(&submit_frame);
                conn.in_flight.push_back(Instant::now());
                total_in_flight += 1;
            }
            if cap_hit.is_none() && admitted + total_in_flight >= ADMIT_CAP {
                cap_hit = Some(now);
            }
        }

        // Flush outboxes; reconcile poller interest.
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.broken {
                continue;
            }
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        conn.broken = true;
                        break;
                    }
                    Ok(written) => conn.wpos += written,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.broken = true;
                        break;
                    }
                }
            }
            if conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            let desired = READABLE | if conn.wbuf.is_empty() { 0 } else { WRITABLE };
            if desired != conn.registered {
                let _ = poller.reregister(conn.stream.as_raw_fd(), i, desired);
                conn.registered = desired;
            }
        }

        // Sleep until socket readiness or the next backoff/phase deadline.
        let mut timeout = Duration::from_millis(50);
        for conn in conns.iter() {
            if let Some(until) = conn.sleep_until {
                timeout = timeout.min(until.saturating_duration_since(now));
            }
        }
        timeout = timeout
            .min(measure_end.saturating_duration_since(now))
            .max(Duration::from_millis(1));
        poller.wait(&mut events, Some(timeout)).expect("wait");

        for ev in &events {
            let conn = &mut conns[ev.token];
            if conn.broken || !ev.readable {
                continue;
            }
            loop {
                match conn.stream.read(&mut read_chunk) {
                    Ok(0) => {
                        conn.broken = true;
                        break;
                    }
                    Ok(got) => conn.rbuf.extend_from_slice(&read_chunk[..got]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.broken = true;
                        break;
                    }
                }
            }
            // Parse every complete response frame off the buffer.
            loop {
                match frame_from_buf(&conn.rbuf) {
                    Ok(Some((payload, consumed))) => {
                        conn.rbuf.drain(..consumed);
                        let sent = conn
                            .in_flight
                            .pop_front()
                            .expect("a response implies an in-flight request");
                        total_in_flight -= 1;
                        let finished = Instant::now();
                        if clock_base.is_none() {
                            clock_base = Some(finished);
                            measure_start = finished + Duration::from_secs_f64(warmup);
                            measure_end = measure_start + Duration::from_secs_f64(duration);
                        }
                        match decode::<Response>(&payload) {
                            Ok(Response::Submitted { .. }) => {
                                conn.ok += 1;
                                admitted += 1;
                                // Half the cap spent warming up: measure
                                // from here, with the other half left.
                                if finished < measure_start && admitted >= ADMIT_CAP / 2 {
                                    measure_start = finished;
                                    measure_end = measure_start + Duration::from_secs_f64(duration);
                                    warmup_cut = true;
                                }
                                // Classify by completion time, the standard
                                // load-generator convention: every response
                                // landing inside the window counts, however
                                // long it queued.
                                if finished >= measure_start && finished <= measure_end {
                                    latencies_us
                                        .push(finished.duration_since(sent).as_secs_f64() * 1e6);
                                    measured_ok += 1;
                                    last_measured = Some(finished);
                                }
                            }
                            Ok(Response::Error(frame)) if frame.kind == ErrorKind::Saturated => {
                                conn.rejected += 1;
                                let wait = conn.backoff.next_wait(frame.retry_after_secs);
                                conn.sleep_until = Some(finished + wait);
                            }
                            Ok(_) => conn.errors += 1,
                            Err(_) => {
                                conn.errors += 1;
                                conn.broken = true;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        conn.broken = true;
                        break;
                    }
                }
            }
        }
    }

    let ok: u64 = conns.iter().map(|c| c.ok).sum();
    let rejected: u64 = conns.iter().map(|c| c.rejected).sum();
    let errors: u64 = conns.iter().map(|c| c.errors).sum();
    // When the cap stopped submits inside the window, the window really
    // ended with the last response it saw: divide by that span, not by the
    // nominal duration.
    let capped = cap_hit.is_some_and(|at| at < measure_end);
    let measured_secs = match (capped, last_measured) {
        (false, _) => duration,
        (true, Some(last)) => last.saturating_duration_since(measure_start).as_secs_f64(),
        (true, None) => 0.0,
    };
    let jobs_per_sec = if measured_secs > 0.0 {
        measured_ok as f64 / measured_secs
    } else {
        0.0
    };
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let percentile = |q: f64| -> f64 {
        if latencies_us.is_empty() {
            return f64::NAN;
        }
        let rank = ((q * latencies_us.len() as f64).ceil() as usize).clamp(1, latencies_us.len());
        latencies_us[rank - 1]
    };
    SweepResult {
        connected,
        ok,
        rejected,
        errors,
        measured_ok,
        jobs_per_sec,
        capped,
        warmup_secs: clock_base.map_or(0.0, |base| {
            measure_start.saturating_duration_since(base).as_secs_f64()
        }),
        warmup_cut,
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
    }
}

/// A fresh in-process server sized for an `n`-connection sweep. On-shutdown
/// drain: submissions only queue during the measurement, so the sweep
/// isolates the RPC path (framing, poller, request handling, admission)
/// from simulated execution.
fn bind_server(n: usize) -> FleetServer {
    FleetServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: FleetConfig {
                node_count: 4,
                queue_capacity: ADMIT_CAP as usize + 1024,
                seed: 0x10AD,
                ..FleetConfig::default()
            },
            drain: DrainPolicy::OnShutdown,
            max_connections: n + 16,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind")
}

fn main() {
    let args = parse_args();
    let mut record = ExperimentRecord::new(
        "rpc_load",
        "Event-loop RPC server under sustained pipelined load: p50/p99 submit \
         latency and jobs/sec at 256/1024/2048 concurrent connections",
    );
    let mut t = Table::new([
        "conns",
        "pipeline",
        "submits ok",
        "saturated",
        "jobs/sec",
        "warmup (s)",
        "cap hit",
        "p50 (us)",
        "p99 (us)",
    ]);

    for &n in &args.connections {
        let (server, addr) = match &args.addr {
            Some(addr) => {
                let addr = addr
                    .to_socket_addrs()
                    .expect("resolvable --addr")
                    .next()
                    .expect("--addr resolves");
                (None, addr)
            }
            None => {
                let server = bind_server(n);
                let addr = server.local_addr();
                (Some(server), addr)
            }
        };

        let result = sweep(addr, n, args.pipeline, args.warmup, args.duration);
        assert_eq!(
            result.connected, n,
            "every one of the {n} clients must get a connection"
        );
        assert_eq!(result.errors, 0, "no response may be malformed or untyped");
        if args.addr.is_none() {
            assert!(
                result.measured_ok > 0,
                "{n} clients sustained zero successful submissions in the window"
            );
        } else {
            // An external server's capacity is unknown — a small held queue
            // legitimately saturates — but it must answer every frame.
            assert!(
                result.ok + result.rejected > 0,
                "{n} clients got no responses from the external server"
            );
        }

        t.row([
            n.to_string(),
            args.pipeline.to_string(),
            result.ok.to_string(),
            result.rejected.to_string(),
            format!("{:.0}", result.jobs_per_sec),
            format!(
                "{:.2}{}",
                result.warmup_secs,
                if result.warmup_cut { " (cut)" } else { "" }
            ),
            if result.capped { "yes" } else { "no" }.to_string(),
            format!("{:.0}", result.p50_us),
            format!("{:.0}", result.p99_us),
        ]);
        record.push(&format!("c{n}_jobs_per_sec"), result.jobs_per_sec, f64::NAN);
        record.push(&format!("c{n}_p50_us"), result.p50_us, f64::NAN);
        record.push(&format!("c{n}_p99_us"), result.p99_us, f64::NAN);
        record.push(&format!("c{n}_saturated"), result.rejected as f64, f64::NAN);

        if let Some(server) = server {
            // Cross-check admissions through a cheap metrics scrape (a
            // graceful shutdown would simulate every queued job — minutes
            // of single-core work that would distort the next sweep; ci.sh
            // covers the shutdown path). The fleet may count a few more
            // than the clients saw — responses still in flight when the
            // generator's drain deadline fired — but never fewer: every
            // `Submitted` a client read is an admitted job.
            let mut client = RpcClient::connect(addr).expect("connect for metrics");
            let text = client.metrics().expect("metrics");
            let admitted: u64 = text
                .lines()
                .find(|l| l.starts_with("nnrt_jobs_submitted_total"))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .expect("nnrt_jobs_submitted_total in the exposition");
            assert!(
                admitted >= result.ok,
                "the fleet counts {admitted} admissions but clients saw {}",
                result.ok
            );
            // Leak the server rather than drain it: its reactor idles in
            // the poller until the process exits.
            std::mem::forget(server);
        }
    }

    t.print(&format!(
        "closed-loop pipelined load, depth {}, {}s warmup + {}s measure{}",
        args.pipeline,
        args.warmup,
        args.duration,
        if args.addr.is_some() {
            " (external server)"
        } else {
            " (fresh in-process server per sweep, on-shutdown drain)"
        }
    ));

    if args.record {
        record.notes(
            "Single-threaded event-loop load generator (same vendored poller as \
             the server) keeping a fixed pipeline of submit frames in flight per \
             connection. Latency is send-to-response wall time inside the measure \
             window; jobs/sec counts admitted submissions only, over the window or, \
             when the admission cap stopped submits first (the table's cap-hit \
             column), over the span up to the window's last response. A warmup that \
             admits half the cap ends there (the table's warmup column says `cut`), \
             so the window keeps the other half. Saturated bounces \
             back off through seeded decorrelated jitter (seed = connection index). \
             Sweeps use a fresh in-process server that holds all queued work \
             (on-shutdown drain policy), so the numbers isolate the RPC path; a \
             post-sweep metrics scrape cross-checks that the fleet counts every \
             admission the clients observed. The generator and the server's one \
             reactor thread share the host's cores, so absolute rates are \
             conservative and run-to-run variance is real.",
        );
        record.write();
    }
}
