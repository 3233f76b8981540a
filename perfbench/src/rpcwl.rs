//! `rpc-open`: an open-loop load generator against an in-process
//! `FleetServer` on loopback.
//!
//! The server holds every job until shutdown (`DrainPolicy::OnShutdown`),
//! so the workload measures the request path alone: framing, the poller,
//! the bounded inbox, the service thread, admission, the graph copy and
//! observability. One generator thread on `nnrt_rpc::poll` drives two
//! connections:
//!
//! * the base phase, from a schedule drawn in advance from the seed:
//!   Poisson `Submit`s over a few dcgan batch sizes, beside Poisson
//!   `Status` reads of already admitted ids and `ListJobs` at a fixed rate.
//!   This is the whole untraced run, which reports the median submit
//!   latency and the submits admitted per second; the traced run adds the
//!   submit and read p99.
//! * in the traced run only, capacity bursts: a batch of `Submit`s offered
//!   all at once, far above what the server can take, so that its
//!   backpressure paces them and the burst's size over its duration is the
//!   most submits per second the request path sustains. A burst is short,
//!   because every admitted job holds its own graph, and on a small host
//!   its rate swings by a quarter from one burst to the next, too much to
//!   bound; it is a per-layer figure.
//!
//! Every base-phase request is timed from the moment it was due to be
//! sent, so a stall anywhere, the generator included, counts against the
//! requests behind it; how late the generator itself ran is reported too.
//! The held queue is never drained: the measurement ends with the
//! schedule, and the server's threads end with the process.

use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, Metrics, Outcome};
use nnrt_graph::{DataflowGraph, OpKind, Shape};
use nnrt_obs::parse_exposition;
use nnrt_rpc::poll::{PollEvent, Poller, READABLE, WRITABLE};
use nnrt_rpc::{
    decode, encode, frame_bytes, frame_from_buf, read_frame, write_frame, DrainPolicy, ErrorKind,
    FleetServer, FrameError, Request, Response, ServerConfig, SubmitSpec,
};
use nnrt_serve::{Fleet, FleetConfig, JobId, JobSpec};
use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// The (model, batch) keys submits draw from. dcgan is the smallest graph
/// in the registry, which keeps the held queue's memory in bounds.
const KEYS: [(&str, u64); 4] = [("dcgan", 2), ("dcgan", 4), ("dcgan", 8), ("dcgan", 16)];
const CONNECTIONS: usize = 2;
/// Base-phase offered rates, per second. Every admitted job holds its own
/// graph, so the submit rate bounds the memory a run needs. `ListJobs`
/// blocks the service thread for a time that grows with the job count; at
/// this rate the submits queued behind it are several percent of the
/// submits from a phase's first few seconds on, so the submit p99
/// measures that interference rather than sitting on its edge.
const BASE_SUBMIT_RATE: f64 = 300.0;
const BASE_STATUS_RATE: f64 = 50.0;
const BASE_LIST_RATE: f64 = 6.0;
/// Windows of a base phase whose latency p99s are reported by their
/// median.
const WINDOWS: usize = 10;
/// Submits per capacity burst.
const BURST_JOBS: usize = 1000;
/// How long responses may trail the schedule's end before they count as
/// lost.
const DRAIN_GRACE: Duration = Duration::from_secs(20);
/// Set-ups per run; the median is reported.
const SETUPS: usize = 11;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Submit,
    Status,
    List,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Submit => "submit",
            Kind::Status => "status",
            Kind::List => "list_jobs",
        }
    }
}

/// One scheduled request.
struct Planned {
    /// Seconds after the schedule's start.
    at: f64,
    kind: Kind,
    conn: usize,
    /// Submit key index.
    key: usize,
    /// Status: which admitted id, as a fraction of those admitted so far.
    pick: f64,
}

/// The base phase's schedule: `secs` of the read/write mix.
fn schedule(seed: u64, secs: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let mut add = |rng: &mut Rng, kind: Kind, rate: f64| {
        let mut t = rng.exp_gap(rate);
        while t < secs {
            out.push(Planned {
                at: t,
                kind,
                conn: rng.below(CONNECTIONS),
                key: rng.below(KEYS.len()),
                pick: rng.unit(),
            });
            t += match kind {
                Kind::List => 1.0 / rate,
                _ => rng.exp_gap(rate),
            };
        }
    };
    add(&mut rng, Kind::Submit, BASE_SUBMIT_RATE);
    add(&mut rng, Kind::Status, BASE_STATUS_RATE);
    add(&mut rng, Kind::List, BASE_LIST_RATE);
    out.sort_by(|a, b| a.at.total_cmp(&b.at));
    out
}

fn submit_request(key: usize) -> Request {
    let (model, batch) = KEYS[key];
    let mut spec = SubmitSpec::new(model);
    spec.batch = batch;
    spec.steps = 1;
    Request::Submit(spec)
}

/// A blocking request/response exchange on a generator connection.
fn exchange(stream: &mut TcpStream, request: &Request) -> Result<Response, String> {
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    write_frame(stream, &encode(request)).map_err(|e| e.to_string())?;
    let payload = read_frame(stream).map_err(|e| e.to_string())?;
    decode(&payload).map_err(|e| e.to_string())
}

struct Server {
    server: FleetServer,
    conns: Vec<TcpStream>,
    /// Ids admitted during warm-up.
    warm_ids: Vec<u64>,
}

/// Binds a server, connects the generator and warms the server's graph
/// cache with one submit per key plus one of each read.
fn set_up(obs_on: bool) -> Result<Server, String> {
    let mut fleet = FleetConfig {
        queue_capacity: 1 << 20,
        ..FleetConfig::default()
    };
    if !obs_on {
        fleet.obs = nnrt_obs::ObsConfig::off();
    }
    let config = ServerConfig {
        fleet,
        drain: DrainPolicy::OnShutdown,
        inbox_capacity: 1 << 16,
        ..ServerConfig::default()
    };
    let server = FleetServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let stream =
            TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        conns.push(stream);
    }
    let mut warm_ids = Vec::new();
    for key in 0..KEYS.len() {
        match exchange(&mut conns[key % CONNECTIONS], &submit_request(key))? {
            Response::Submitted { job_id } => warm_ids.push(job_id),
            other => return Err(format!("warm-up submit answered {other:?}")),
        }
    }
    match exchange(
        &mut conns[0],
        &Request::Status {
            job_id: warm_ids[0],
        },
    )? {
        Response::Job(_) => {}
        other => return Err(format!("warm-up status answered {other:?}")),
    }
    match exchange(&mut conns[1 % CONNECTIONS], &Request::ListJobs)? {
        Response::Jobs(_) => {}
        other => return Err(format!("warm-up list answered {other:?}")),
    }
    Ok(Server {
        server,
        conns,
        warm_ids,
    })
}

/// Shuts a warm-up-only server down (its drain is a handful of jobs).
fn tear_down(mut s: Server) -> Result<(), String> {
    match exchange(&mut s.conns[0], &Request::Shutdown)? {
        Response::Bye { .. } => {}
        other => return Err(format!("shutdown answered {other:?}")),
    }
    drop(s.conns);
    s.server.join().ok_or("server ended without a report")?;
    Ok(())
}

/// One answered request.
struct Sample {
    kind: Kind,
    /// Scheduled send time, seconds after the schedule's start.
    at: f64,
    /// Scheduled send to response, seconds.
    latency: f64,
}

/// What one schedule's execution measured.
#[derive(Default)]
struct Load {
    samples: Vec<Sample>,
    /// Send time minus scheduled time, seconds.
    lags: Vec<f64>,
    attempted: u64,
    saturated: u64,
    /// Error replies other than `Saturated`, and lost requests.
    errors: u64,
    /// Responses of the wrong type.
    malformed: u64,
    /// Job ids the `Submitted` replies carried.
    ids: Vec<u64>,
    /// Seconds from the start to the last response.
    elapsed: f64,
}

impl Load {
    /// Classifies one decoded response to a request of `kind` (`expect`:
    /// the id a `Status` asked for).
    fn record(&mut self, kind: Kind, expect: u64, response: Result<Response, FrameError>) {
        match (kind, response) {
            (Kind::Submit, Ok(Response::Submitted { job_id })) => self.ids.push(job_id),
            (Kind::Status, Ok(Response::Job(status))) if status.id == expect => {}
            (Kind::List, Ok(Response::Jobs(jobs)))
                if jobs.windows(2).all(|w| w[0].id < w[1].id) => {}
            (_, Ok(Response::Error(e))) if e.kind == ErrorKind::Saturated => self.saturated += 1,
            (_, Ok(Response::Error(_))) => self.errors += 1,
            _ => self.malformed += 1,
        }
    }
}

/// One generator connection: a nonblocking stream with its buffers.
struct Conn {
    stream: TcpStream,
    token: usize,
    wbuf: Vec<u8>,
    written: usize,
    rbuf: Vec<u8>,
    /// Schedule index and expected status id of each in-flight request.
    in_flight: VecDeque<(usize, u64)>,
    interest: u8,
}

impl Conn {
    fn open(s: &Server, poller: &mut Poller) -> Result<Vec<Conn>, String> {
        let mut conns = Vec::new();
        for (token, stream) in s.conns.iter().enumerate() {
            let stream = stream.try_clone().map_err(|e| e.to_string())?;
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            poller
                .register(stream.as_raw_fd(), token, READABLE)
                .map_err(|e| format!("register: {e}"))?;
            conns.push(Conn {
                stream,
                token,
                wbuf: Vec::new(),
                written: 0,
                rbuf: Vec::new(),
                in_flight: VecDeque::new(),
                interest: READABLE,
            });
        }
        Ok(conns)
    }

    /// Writes what the socket takes, and asks the poller for writability
    /// only while bytes are left.
    fn flush(&mut self, poller: &mut Poller) -> Result<(), String> {
        while self.written < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.written..]) {
                Ok(0) => return Err("connection closed while writing".into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if self.written == self.wbuf.len() {
            self.wbuf.clear();
            self.written = 0;
        }
        let want = READABLE | if self.wbuf.is_empty() { 0 } else { WRITABLE };
        if want != self.interest {
            poller
                .reregister(self.stream.as_raw_fd(), self.token, want)
                .map_err(|e| format!("reregister: {e}"))?;
            self.interest = want;
        }
        Ok(())
    }

    /// Reads what has arrived and returns every complete response frame.
    fn receive(&mut self, chunk: &mut [u8]) -> Result<Vec<String>, String> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Err("server closed a connection".into()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let mut frames = Vec::new();
        let mut consumed = 0;
        while let Some((payload, used)) =
            frame_from_buf(&self.rbuf[consumed..]).map_err(|e| format!("bad frame: {e}"))?
        {
            consumed += used;
            frames.push(payload);
        }
        self.rbuf.drain(..consumed);
        Ok(frames)
    }
}

/// Drives a slice of the base-phase schedule over the server's
/// connections; `Status` requests pick from `admitted`, which grows with
/// every `Submitted` reply.
fn drive(
    s: &Server,
    plan: &[Planned],
    admitted: &mut Vec<u64>,
    tracer: &mut Tracer,
) -> Result<Load, String> {
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut conns = Conn::open(s, &mut poller)?;
    let mut load = Load::default();
    let mut lists = Vec::new();
    let end = plan.last().map_or(0.0, |p| p.at);
    let mut events: Vec<PollEvent> = Vec::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut next = 0;
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(end) + DRAIN_GRACE;

    loop {
        let now = start.elapsed().as_secs_f64();
        while next < plan.len() && plan[next].at <= now {
            let p = &plan[next];
            let (request, expect) = match p.kind {
                Kind::Submit => (submit_request(p.key), 0),
                Kind::Status => {
                    let id = admitted[(p.pick * admitted.len() as f64) as usize];
                    (Request::Status { job_id: id }, id)
                }
                Kind::List => (Request::ListJobs, 0),
            };
            let frame = tracer.span("rpc.encode", || frame_bytes(&encode(&request)));
            let c = &mut conns[p.conn];
            c.wbuf.extend_from_slice(&frame);
            c.in_flight.push_back((next, expect));
            load.lags.push(start.elapsed().as_secs_f64() - p.at);
            load.attempted += 1;
            next += 1;
        }
        for c in conns.iter_mut() {
            c.flush(&mut poller)?;
        }
        if next == plan.len() && conns.iter().all(|c| c.in_flight.is_empty()) {
            break;
        }
        if start.elapsed() > deadline {
            load.errors += conns.iter().map(|c| c.in_flight.len() as u64).sum::<u64>();
            break;
        }

        // Sleep in the poller until the next send is near, then poll in
        // short steps so sends leave close to their scheduled time.
        let until_next = plan.get(next).map_or(0.05, |p| p.at - now);
        if until_next > 0.002 {
            poller
                .wait(
                    &mut events,
                    Some(Duration::from_secs_f64(until_next - 0.001)),
                )
                .map_err(|e| format!("wait: {e}"))?;
        } else {
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .map_err(|e| format!("wait: {e}"))?;
            if events.is_empty() && until_next > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(until_next.min(0.0001)));
            }
        }

        for ev in events.iter().filter(|e| e.readable) {
            let c = &mut conns[ev.token];
            for payload in c.receive(&mut chunk)? {
                let done = start.elapsed().as_secs_f64();
                let (idx, expect) = c
                    .in_flight
                    .pop_front()
                    .ok_or("a response with no request in flight")?;
                let p = &plan[idx];
                load.samples.push(Sample {
                    kind: p.kind,
                    at: p.at,
                    latency: done - p.at,
                });
                if p.kind == Kind::List {
                    // Decoding a list of thousands of jobs would stall the
                    // generator; lists are checked after the window.
                    lists.push(payload);
                    continue;
                }
                let response = tracer.span("rpc.decode", || decode::<Response>(&payload));
                if let Ok(Response::Submitted { job_id }) = &response {
                    admitted.push(*job_id);
                }
                load.record(p.kind, expect, response);
            }
        }
    }
    load.elapsed = start.elapsed().as_secs_f64();
    for payload in &lists {
        let response = tracer.span("rpc.decode", || decode::<Response>(payload));
        load.record(Kind::List, 0, response);
    }
    Ok(load)
}

/// A capacity burst: [`BURST_JOBS`] submits, encoded beforehand and
/// written as fast as the server's backpressure lets them in. Responses
/// are only framed during the burst and decoded after it, so the generator
/// takes as little CPU from the server as it can. Returns the burst's
/// admitted submits per second.
fn burst(s: &Server, seed: u64) -> Result<(f64, Load), String> {
    let mut rng = Rng::new(seed ^ 0xB0B5);
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut conns = Conn::open(s, &mut poller)?;
    for _ in 0..BURST_JOBS {
        let request = submit_request(rng.below(KEYS.len()));
        conns[rng.below(CONNECTIONS)]
            .wbuf
            .extend_from_slice(&frame_bytes(&encode(&request)));
    }
    let mut load = Load {
        attempted: BURST_JOBS as u64,
        ..Load::default()
    };
    let mut events: Vec<PollEvent> = Vec::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut payloads = Vec::with_capacity(BURST_JOBS);
    let start = Instant::now();
    while payloads.len() < BURST_JOBS {
        if start.elapsed() > DRAIN_GRACE {
            load.errors += (BURST_JOBS - payloads.len()) as u64;
            break;
        }
        for c in conns.iter_mut() {
            c.flush(&mut poller)?;
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .map_err(|e| format!("wait: {e}"))?;
        for ev in events.iter().filter(|e| e.readable) {
            payloads.extend(conns[ev.token].receive(&mut chunk)?);
        }
    }
    load.elapsed = start.elapsed().as_secs_f64();
    for payload in &payloads {
        load.record(Kind::Submit, 0, decode::<Response>(payload));
    }
    Ok((load.ids.len() as f64 / load.elapsed, load))
}

/// What a `Metrics` scrape through the generator's own connection shows.
struct Scrape {
    jobs_submitted: f64,
    /// Mean service time per request kind, seconds.
    service: Vec<(Kind, f64)>,
}

fn scrape(s: &mut Server) -> Result<Scrape, String> {
    let text = match exchange(&mut s.conns[0], &Request::Metrics)? {
        Response::Metrics { text } => text,
        other => return Err(format!("metrics answered {other:?}")),
    };
    let exp = parse_exposition(&text)?;
    let service = [Kind::Submit, Kind::Status, Kind::List]
        .into_iter()
        .map(|k| {
            let labels = [("kind", k.name())];
            let sum = exp.value("nnrt_rpc_latency_seconds_sum", &labels);
            let count = exp.value("nnrt_rpc_latency_seconds_count", &labels);
            let mean = match (sum, count) {
                (Some(s), Some(c)) if c > 0.0 => s / c,
                _ => 0.0,
            };
            (k, mean)
        })
        .collect();
    Ok(Scrape {
        jobs_submitted: exp.sum("nnrt_jobs_submitted_total", &[]),
        service,
    })
}

/// Latencies of `kind` requests by window of scheduled send time.
fn windows(load: &Load, secs: f64, kind: impl Fn(Kind) -> bool) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); WINDOWS];
    for s in load.samples.iter().filter(|s| kind(s.kind)) {
        let w = ((s.at / secs * WINDOWS as f64) as usize).min(WINDOWS - 1);
        out[w].push(s.latency);
    }
    out
}

fn latencies(load: &Load, kind: impl Fn(Kind) -> bool) -> Vec<f64> {
    load.samples
        .iter()
        .filter(|s| kind(s.kind))
        .map(|s| s.latency)
        .collect()
}

fn sum(loads: &[&Load], f: fn(&Load) -> u64) -> u64 {
    loads.iter().map(|l| f(l)).sum()
}

/// Output checks over the loads one server saw: only typed responses,
/// unique job ids, and a fleet that counts (`counted`, from a metrics
/// scrape) at least every admission the generator was told of.
fn check(s: &Server, loads: &[&Load], counted: f64) -> bool {
    let ids: Vec<u64> = s
        .warm_ids
        .iter()
        .chain(loads.iter().flat_map(|l| l.ids.iter()))
        .copied()
        .collect();
    let unique = ids.iter().collect::<HashSet<_>>().len() == ids.len();
    unique && sum(loads, |l| l.malformed) == 0 && counted >= ids.len() as f64
}

/// `list_jobs` and `job_status` called in process on a fleet holding as
/// many queued jobs as the untraced run ends with. Neither call reads a
/// job's graph, so the jobs carry a one-op graph and the fleet stays small
/// beside the servers' held queues.
fn in_process_reads(jobs: usize) -> (f64, f64) {
    let mut graph = DataflowGraph::new();
    graph.add_op(OpKind::MatMul, Shape::mat(64, 64), &[]);
    let mut fleet = Fleet::new(FleetConfig {
        queue_capacity: 1 << 20,
        ..FleetConfig::default()
    });
    for i in 0..jobs {
        let spec = JobSpec {
            name: format!("dcgan-{i}"),
            model: "dcgan".to_string(),
            graph: graph.clone(),
            steps: 1,
            priority: 0,
            weight: 1.0,
        };
        fleet.submit(spec).expect("unbounded queue admits");
    }
    let mut list = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(fleet.list_jobs());
        list.push(t.elapsed().as_secs_f64());
    }
    let mut status = Vec::new();
    let mut rng = Rng::new(jobs as u64);
    for _ in 0..200 {
        let id = rng.below(jobs) as u64;
        let t = Instant::now();
        std::hint::black_box(fleet.job_status(JobId(id)));
        status.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&list), stats::median(&status))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(args);
    }
    let plan = schedule(args.seed, args.seconds.as_secs_f64());

    let mut setup_secs = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = set_up(true)?;
        setup_secs.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            tear_down(s)?;
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up");
    let mut admitted = server.warm_ids.clone();
    let load = drive(&server, &plan, &mut admitted, &mut Tracer::new(false))?;
    let scrape = scrape(&mut server)?;

    let submits = latencies(&load, |k| k == Kind::Submit);
    let reads = latencies(&load, |k| k != Kind::Submit);
    eprintln!(
        "rpc-open: {} submits and {} reads over {:.2}s, generator lag p99 {:.3} ms; \
         {} jobs admitted",
        submits.len(),
        reads.len(),
        load.elapsed,
        stats::quantile(&load.lags, 0.99) * 1e3,
        scrape.jobs_submitted,
    );
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&setup_secs), "s");
    m.put("jobs_per_s", load.ids.len() as f64 / load.elapsed, "jobs/s");
    m.put("submit_p50_ms", stats::quantile(&submits, 0.5) * 1e3, "ms");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    Ok(Outcome {
        correct: check(&server, &[&load], scrape.jobs_submitted),
        attempted: load.attempted,
        failed: load.saturated + load.errors,
        metrics: m,
    })
    // The server still holds every admitted job; its threads end with the
    // process rather than draining thousands of jobs through a shutdown.
}

/// One phase of the traced run: a fresh server, the base mix (if any), one
/// burst.
struct Phase {
    base: Load,
    burst: Load,
    burst_rate: f64,
    correct: bool,
    scrape: Scrape,
}

fn phase(seed: u64, plan: &[Planned], obs_on: bool, tracer: &mut Tracer) -> Result<Phase, String> {
    let mut s = set_up(obs_on)?;
    let mut admitted = s.warm_ids.clone();
    let base = drive(&s, plan, &mut admitted, tracer)?;
    let (burst_rate, burst) = burst(&s, seed)?;
    let scrape = scrape(&mut s)?;
    // With observability off the fleet counts nothing to check against.
    let counted = if obs_on {
        scrape.jobs_submitted
    } else {
        f64::INFINITY
    };
    let correct = check(&s, &[&base, &burst], counted);
    Ok(Phase {
        base,
        burst,
        burst_rate,
        correct,
        scrape,
    })
}

/// The traced run: in-process reads at the untraced run's final job count,
/// then three servers, each ending in a capacity burst: a third of the
/// run's base mix traced, the burst alone with observability off, and a
/// third of the base mix untraced.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let secs = args.seconds.as_secs_f64();
    let full_jobs = KEYS.len()
        + schedule(args.seed, secs)
            .iter()
            .filter(|p| p.kind == Kind::Submit)
            .count();
    let mut tracer = Tracer::new(true);
    let (list_secs, status_secs) = in_process_reads(full_jobs);

    let phase_secs = secs / 3.0;
    let plan = schedule(args.seed, phase_secs);
    let mut untraced = Tracer::new(false);
    let traced = phase(args.seed, &plan, true, &mut tracer)?;
    let off = phase(args.seed, &[], false, &mut untraced)?;
    let plain = phase(args.seed, &plan, true, &mut untraced)?;

    let submit_median = |p: &Phase| stats::median(&latencies(&p.base, |k| k == Kind::Submit));
    let encode = tracer.get("rpc.encode");
    let decode = tracer.get("rpc.decode");
    let mut extras = vec![
        ("serve.list_jobs_ms", list_secs * 1e3),
        ("serve.job_status_us", status_secs * 1e6),
        // Capacity lost to observability: burst throughput with it off
        // over burst throughput with it on.
        ("obs.tax_frac", off.burst_rate / plain.burst_rate - 1.0),
        (
            "trace.overhead_frac",
            submit_median(&traced) / submit_median(&plain) - 1.0,
        ),
        (
            "rpc.encode_us",
            encode.secs / encode.calls.max(1) as f64 * 1e6,
        ),
        (
            "rpc.decode_us",
            decode.secs / decode.calls.max(1) as f64 * 1e6,
        ),
        (
            "rpc.gen_lag_ms",
            stats::quantile(&traced.base.lags, 0.99) * 1e3,
        ),
        ("rpc.capacity_per_s", plain.burst_rate),
        (
            "rpc.submit_p99_ms",
            stats::windowed_p99(&windows(&plain.base, phase_secs, |k| k == Kind::Submit)) * 1e3,
        ),
        (
            "rpc.read_p99_ms",
            stats::windowed_p99(&windows(&plain.base, phase_secs, |k| k != Kind::Submit)) * 1e3,
        ),
    ];
    let mut explained = encode.secs + decode.secs;
    let mut rtt_total = 0.0;
    for (kind, service) in &traced.scrape.service {
        let (rtt_name, service_name, wait_name) = match kind {
            Kind::Submit => (
                "rpc.rtt_us.submit",
                "rpc.service_us.submit",
                "rpc.wait_us.submit",
            ),
            Kind::Status => (
                "rpc.rtt_us.status",
                "rpc.service_us.status",
                "rpc.wait_us.status",
            ),
            Kind::List => (
                "rpc.rtt_us.list_jobs",
                "rpc.service_us.list_jobs",
                "rpc.wait_us.list_jobs",
            ),
        };
        // Base-phase round trips; the server's service histogram also
        // holds the warm-up and burst requests.
        let rtts = latencies(&traced.base, |k| k == *kind);
        let rtt = stats::mean(&rtts);
        explained += service * rtts.len() as f64;
        rtt_total += rtt * rtts.len() as f64;
        extras.push((rtt_name, rtt * 1e6));
        extras.push((service_name, service * 1e6));
        extras.push((wait_name, (rtt - service) * 1e6));
    }
    let phases = [&traced, &off, &plain];
    let all: Vec<&Load> = phases.iter().flat_map(|p| [&p.base, &p.burst]).collect();
    extras.push(("rpc.saturated", sum(&all, |l| l.saturated) as f64));
    // Of the traced base phase's round trips, the share the recorded spans
    // (encode, decode and the server's own service time) account for; the
    // rest is transport, event loop and inbox wait.
    extras.push(("trace.coverage", explained / rtt_total));
    Ok(Outcome {
        correct: phases.iter().all(|p| p.correct),
        attempted: sum(&all, |l| l.attempted),
        failed: sum(&all, |l| l.saturated + l.errors),
        metrics: crate::layer_metrics(&tracer, 1.0, plain.base.elapsed, &extras),
    })
}
