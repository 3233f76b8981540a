//! The single-threaded TCP front-end that owns a [`Fleet`].
//!
//! ```text
//!  reactor thread (one: owns every socket and the Fleet)
//!  ┌───────────────────────────────────────────────────────────────┐
//!  │ poller: poll(2)                                               │
//!  │   ├─ listener readable ─▶ accept → register conn              │
//!  │   └─ conn readable/writable, or frames left from last turn    │
//!  │        ─▶ per-connection machine: read-accumulate             │
//!  │           ▸ decode ≤ pipeline_depth frames                    │
//!  │           ▸ handle each against the Fleet ▸ encode to outbox  │
//!  │           ▸ write-drain                                       │
//!  │   then, under DrainPolicy::Eager: one Fleet::tick()           │
//!  └───────────────────────────────────────────────────────────────┘
//! ```
//!
//! One thread owns every socket and the `Fleet`: a request is decoded,
//! handled and answered on the thread that read it, with no channel or lock
//! in between. The reactor multiplexes every connection through a
//! readiness poller ([`crate::poll`]); each connection is a state machine
//! (the private `conn` module) that accumulates bytes, decodes
//! length-prefixed frames and write-drains its outbox when the socket
//! accepts bytes. One turn handles at most
//! [`ServerConfig::pipeline_depth`] requests per connection, so one
//! client's burst holds the others off for at most a turn; a connection
//! that still holds complete frames is revisited on the next turn without
//! waiting for the poller.
//!
//! Connections are *pipelined*: a client may send many frames without
//! awaiting responses, and responses leave in request order because each is
//! written to the outbox as its request is handled. Backpressure is typed
//! and layered: a full admission queue answers [`ErrorKind::Saturated`]
//! (with a `retry_after_secs` hint), a connection over
//! [`ServerConfig::max_connections`] gets one `Saturated` frame and a
//! close, and a connection whose outbox backs up past the high-water mark
//! is neither parsed nor read until it drains — TCP flow control carries
//! the stall back to the client.
//!
//! Between turns of I/O the fleet advances through [`Fleet::tick`] — the
//! same event order [`Fleet::run`] uses, which preserves chaos-event,
//! checkpoint, and report semantics. [`DrainPolicy::OnShutdown`] holds all
//! queued work until the `Shutdown` request and then drains through
//! [`Fleet::run`] — so a job mix submitted over the wire produces a
//! [`FleetReport`] byte-identical to the same mix pushed through the
//! in-process `Fleet` API. [`DrainPolicy::Eager`] is the live-service mode:
//! the reactor runs one tick per turn and polls without blocking while the
//! fleet has work, so status queries observe jobs mid-flight. No socket is
//! served while a tick (or a request) runs.
//!
//! [`FleetReport`]: nnrt_serve::FleetReport

use crate::conn::Connection;
use crate::poll::{PollEvent, Poller, READABLE};
use crate::protocol::{ErrorFrame, ErrorKind, Request, Response, SnapshotInfo, SubmitSpec};
use nnrt_graph::DataflowGraph;
use nnrt_models::MAX_BATCH;
use nnrt_obs::{Clock, EventKind, Obs};
use nnrt_serve::{AdmitError, Fleet, FleetConfig, JobId, JobSpec};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Cadence of the housekeeping pass (idle sweep + gauge refresh), and so
/// the longest the reactor sleeps in the poller with nothing to do.
const HOUSEKEEPING_INTERVAL: Duration = Duration::from_millis(100);

/// How long the shutdown drain keeps flushing outstanding responses (the
/// `Bye` frame above all) before dropping whatever connections remain.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);

/// Default cap on concurrently served connections; accepts beyond it bounce
/// with a typed [`ErrorKind::Saturated`] frame. The reactor spends a few
/// hundred bytes per idle connection rather than a thread, so the default
/// is sized for thousands of clients.
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;

/// Default per-connection idle read timeout: a client that holds a
/// connection open without moving a byte for this long is disconnected,
/// freeing its slot.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Default cap on the pipelined requests one connection gets handled per
/// reactor turn; frames beyond it wait for the next turn.
pub const DEFAULT_PIPELINE_DEPTH: usize = 16;

/// Retry hint carried by connection-cap rejections, seconds.
pub const CONNECTION_RETRY_SECS: f64 = 0.5;

/// Most `(model, batch)` graphs the server caches. The key is
/// client-chosen, so past the cap a new key's graph is built for its
/// submission but not kept.
const GRAPH_CACHE_CAP: usize = 64;

/// When the fleet executes queued work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainPolicy {
    /// Live service: the reactor runs one [`Fleet::tick`] per turn, so jobs
    /// run (and complete, freeing queue capacity) between requests.
    #[default]
    Eager,
    /// Batch window: submissions only queue; the whole mix drains through
    /// [`Fleet::run`] when `Shutdown` arrives. The final report is
    /// byte-identical to submitting the same mix through the in-process
    /// `Fleet` API — the determinism contract the loopback tests pin.
    OnShutdown,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fleet configuration (nodes, queue capacity, seed, …).
    pub fleet: FleetConfig,
    /// When queued work executes.
    pub drain: DrainPolicy,
    /// Ignored. Requests are handled on the thread that reads them, so
    /// there is no command inbox to size; the field remains so existing
    /// configurations still build.
    pub inbox_capacity: usize,
    /// Where the graceful shutdown writes the profile-store snapshot
    /// (`None` skips persistence).
    pub snapshot_path: Option<PathBuf>,
    /// Cap on concurrently served connections; accepts beyond it answer one
    /// `Saturated` error frame and close.
    pub max_connections: usize,
    /// Per-connection idle read timeout: a connection that moves no byte
    /// for this long is closed (`Duration::ZERO` disables the sweep).
    pub idle_timeout: Duration,
    /// Cap on the requests handled per connection per reactor turn: further
    /// frames wait in kernel/userspace buffers for the next turn.
    pub pipeline_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            fleet: FleetConfig::default(),
            drain: DrainPolicy::Eager,
            inbox_capacity: 64,
            snapshot_path: None,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
        }
    }
}

/// The networked fleet service: one reactor thread that multiplexes every
/// socket through a readiness poller and owns the [`Fleet`].
pub struct FleetServer {
    addr: SocketAddr,
    reactor: JoinHandle<Option<String>>,
}

impl FleetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving a
    /// fresh fleet built from `config.fleet`.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<FleetServer> {
        let fleet = Fleet::new(config.fleet.clone());
        Self::bind_with_fleet(addr, fleet, config)
    }

    /// Binds `addr` and serves an existing fleet — the warm-restart path: a
    /// fleet whose store was restored from a snapshot (or one with
    /// heterogeneous cost models) goes straight behind the socket.
    pub fn bind_with_fleet(
        addr: impl ToSocketAddrs,
        fleet: Fleet,
        config: ServerConfig,
    ) -> io::Result<FleetServer> {
        let reactor = Reactor::new(TcpListener::bind(addr)?, fleet, config)?;
        let addr = reactor.listener.local_addr()?;
        let reactor = thread::Builder::new()
            .name("nnrt-rpc".to_string())
            .spawn(move || reactor.run())?;
        Ok(FleetServer { addr, reactor })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `Shutdown` request stops the server, then returns the
    /// final [`nnrt_serve::FleetReport`] JSON the shutdown flushed (`None`
    /// only if the reactor stopped without one).
    pub fn join(self) -> Option<String> {
        self.reactor.join().ok().flatten()
    }
}

/// Poller token of the TCP listener.
const TOKEN_LISTENER: usize = 0;
/// Connection slab slot `i` registers under token `i + CONN_TOKEN_BASE`.
const CONN_TOKEN_BASE: usize = 1;

/// The one thread that owns every socket and the fleet.
struct Reactor {
    fleet: Fleet,
    obs: Arc<Obs>,
    drain: DrainPolicy,
    snapshot_path: Option<PathBuf>,
    listener: TcpListener,
    poller: Poller,
    max_connections: usize,
    idle_timeout: Duration,
    pipeline_depth: usize,
    /// Connection slab: poller tokens index it directly (offset by
    /// [`CONN_TOKEN_BASE`]); freed slots are reused via `free`.
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    /// Slots whose connection still held complete frames after its last
    /// pump; the next turn serves them without waiting for readiness.
    backlog: Vec<usize>,
    /// Connections currently holding a `max_connections` slot (cap-bounced
    /// ones don't count).
    counted_live: usize,
    last_conn_gauge: f64,
    last_outbox_gauge: f64,
    /// `(model, batch)` → built graph, so repeated submissions of one model
    /// family do not rebuild multi-thousand-op graphs per request. Graph
    /// clones share one body, so every job admitted from the cache holds
    /// the cached graph itself, not a copy. Holds at most
    /// [`GRAPH_CACHE_CAP`] keys.
    graphs: HashMap<(String, u64), DataflowGraph>,
    /// Wall-clock origin for RPC event timestamps.
    epoch: Instant,
    /// The final report, set by the `Shutdown` request; it ends the loop.
    report: Option<String>,
}

impl Reactor {
    fn new(listener: TcpListener, fleet: Fleet, config: ServerConfig) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, READABLE)?;
        Ok(Reactor {
            obs: fleet.obs(),
            fleet,
            drain: config.drain,
            snapshot_path: config.snapshot_path,
            listener,
            poller,
            max_connections: config.max_connections.max(1),
            idle_timeout: config.idle_timeout,
            pipeline_depth: config.pipeline_depth.max(1),
            conns: Vec::new(),
            free: Vec::new(),
            backlog: Vec::new(),
            counted_live: 0,
            last_conn_gauge: -1.0,
            last_outbox_gauge: -1.0,
            graphs: HashMap::new(),
            epoch: Instant::now(),
            report: None,
        })
    }

    /// Serves until `Shutdown`, drains, and returns the final report.
    fn run(mut self) -> Option<String> {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut dirty: Vec<usize> = Vec::new();
        let mut fleet_busy = false;
        let mut last_housekeeping = Instant::now();
        while self.report.is_none() {
            // Work left over from the last turn polls without blocking.
            let timeout = if fleet_busy || !self.backlog.is_empty() {
                Duration::ZERO
            } else {
                HOUSEKEEPING_INTERVAL.saturating_sub(last_housekeeping.elapsed())
            };
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            dirty.clear();
            dirty.append(&mut self.backlog);
            let mut accept_ready = false;
            for ev in &events {
                if ev.token == TOKEN_LISTENER {
                    accept_ready = true;
                    continue;
                }
                let slot = ev.token - CONN_TOKEN_BASE;
                if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                    if ev.readable {
                        conn.on_readable();
                    }
                    dirty.push(slot);
                }
            }
            if accept_ready {
                self.accept_all(&mut dirty);
            }
            dirty.sort_unstable();
            dirty.dedup();
            for &slot in &dirty {
                self.pump(slot);
            }
            fleet_busy =
                self.drain == DrainPolicy::Eager && self.report.is_none() && self.fleet.tick();
            if last_housekeeping.elapsed() >= HOUSEKEEPING_INTERVAL {
                last_housekeeping = Instant::now();
                self.sweep_idle();
                self.refresh_gauges();
            }
        }
        self.shutdown_drain();
        self.report
    }

    /// Accepts every pending connection; over the cap, a connection is
    /// created only to carry one typed `Saturated` frame and close.
    fn accept_all(&mut self, dirty: &mut Vec<usize>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let conn = if self.counted_live >= self.max_connections {
                        self.obs.counter_add(
                            Clock::Wall,
                            "nnrt_rpc_connections_rejected_total",
                            &[],
                            1,
                        );
                        Connection::reject(
                            stream,
                            Response::Error(ErrorFrame {
                                kind: ErrorKind::Saturated,
                                message: format!(
                                    "server is at its connection cap ({})",
                                    self.max_connections
                                ),
                                retry_after_secs: Some(CONNECTION_RETRY_SECS),
                            }),
                        )
                    } else {
                        Connection::new(stream, true)
                    };
                    let Ok(mut conn) = conn else { continue };
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let interest = conn.desired_interest();
                    if self
                        .poller
                        .register(conn.stream.as_raw_fd(), slot + CONN_TOKEN_BASE, interest)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    conn.registered_interest = interest;
                    if conn.counted {
                        self.counted_live += 1;
                    }
                    self.conns[slot] = Some(conn);
                    dirty.push(slot);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Advances one connection's state machine: flush, handle up to
    /// `pipeline_depth` buffered requests, flush their answers, then queue
    /// a revisit if complete frames remain and reconcile poller interest —
    /// or close.
    fn pump(&mut self, slot: usize) {
        // Out of the slab while its requests are handled, which need the
        // whole reactor (the fleet, the graph cache, the report slot).
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        conn.flush();
        conn.parse_frames(self.pipeline_depth, |request| self.handle(request));
        conn.flush();
        let close = conn.should_close();
        if !close {
            if conn.has_backlog() {
                self.backlog.push(slot);
            }
            let desired = conn.desired_interest();
            if desired != conn.registered_interest
                && self
                    .poller
                    .reregister(conn.stream.as_raw_fd(), slot + CONN_TOKEN_BASE, desired)
                    .is_ok()
            {
                conn.registered_interest = desired;
            }
        }
        self.conns[slot] = Some(conn);
        if close {
            self.close(slot);
        }
    }

    /// Deregisters and drops one connection, freeing its slab slot (and its
    /// `max_connections` slot, if it held one).
    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            if conn.counted {
                self.counted_live = self.counted_live.saturating_sub(1);
            }
            self.free.push(slot);
        }
    }

    /// Closes connections that have been silent past the idle timeout.
    fn sweep_idle(&mut self) {
        if self.idle_timeout.is_zero() {
            return;
        }
        let now = Instant::now();
        let stale: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| {
                let conn = conn.as_ref()?;
                (now.duration_since(conn.last_activity) >= self.idle_timeout).then_some(slot)
            })
            .collect();
        for slot in stale {
            self.close(slot);
        }
    }

    /// Publishes the wall-domain connection-count and outbox-depth gauges,
    /// touching the registry only when a value changed.
    fn refresh_gauges(&mut self) {
        if !self.obs.enabled() {
            return;
        }
        let live = self.counted_live as f64;
        if live != self.last_conn_gauge {
            self.obs
                .gauge_set(Clock::Wall, "nnrt_rpc_connections", &[], live);
            self.last_conn_gauge = live;
        }
        let outbox: usize = self
            .conns
            .iter()
            .filter_map(|c| c.as_ref().map(Connection::outbox_bytes))
            .sum();
        let outbox = outbox as f64;
        if outbox != self.last_outbox_gauge {
            self.obs
                .gauge_set(Clock::Wall, "nnrt_rpc_outbox_bytes", &[], outbox);
            self.last_outbox_gauge = outbox;
        }
    }

    /// Final drain after `Shutdown`: stop accepting and parsing, and flush
    /// what is already answered (the `Bye` frame above all) for up to
    /// [`SHUTDOWN_GRACE`] before dropping the remaining sockets.
    fn shutdown_drain(&mut self) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        for conn in self.conns.iter_mut().flatten() {
            conn.begin_close();
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        let mut events = Vec::new();
        loop {
            for slot in 0..self.conns.len() {
                self.pump(slot);
            }
            if self.conns.iter().all(Option::is_none) || Instant::now() >= deadline {
                break;
            }
            let _ = self
                .poller
                .wait(&mut events, Some(Duration::from_millis(20)));
        }
    }

    /// Answers one request against the fleet.
    fn handle(&mut self, request: Request) -> Response {
        if self.report.is_some() {
            // Another connection's `Shutdown` already drained the fleet in
            // this turn.
            return Response::Error(ErrorFrame {
                kind: ErrorKind::ShuttingDown,
                message: "server is shutting down".to_string(),
                retry_after_secs: None,
            });
        }
        let started = Instant::now();
        let kind = request.kind();
        let response = match request {
            Request::Submit(spec) => self.submit(spec),
            Request::Status { job_id } => match self.fleet.job_status(JobId(job_id)) {
                Some(status) => Response::Job(status),
                None => Response::Error(ErrorFrame {
                    kind: ErrorKind::UnknownJob,
                    message: format!("job {job_id} was never admitted"),
                    retry_after_secs: None,
                }),
            },
            Request::ListJobs => Response::Jobs(self.fleet.list_jobs()),
            Request::Snapshot => {
                let store = self.fleet.store();
                Response::Snapshot(SnapshotInfo::new(
                    store.len(),
                    store.stats(),
                    store.snapshot(),
                ))
            }
            Request::Metrics => {
                // Refresh the point-in-time gauges so a live scrape sees the
                // fleet as it stands, then expose both clock domains.
                self.fleet.refresh_obs_gauges();
                Response::Metrics {
                    text: self.obs.expose(None),
                }
            }
            Request::Events => Response::Events(self.obs.events_snapshot(None)),
            Request::Shutdown => {
                // Drain every queued, resident, and evicted job through the
                // same code path the in-process API uses, then flush.
                let report = self.fleet.run().to_json();
                if let Some(path) = &self.snapshot_path {
                    let snapshot = self.fleet.store().snapshot();
                    if let Err(e) = nnrt_serve::write_atomic(path, snapshot.as_bytes()) {
                        eprintln!("nnrt-rpc: snapshot write to {} failed: {e}", path.display());
                    }
                }
                self.report = Some(report.clone());
                Response::Bye { report }
            }
        };
        self.observe_rpc(kind, started, &response);
        response
    }

    /// Accounts one handled request in the wall domain: a per-kind count
    /// split by outcome, a per-kind service-latency histogram, and a
    /// structured `RpcRequest` event.
    fn observe_rpc(&self, kind: &'static str, started: Instant, response: &Response) {
        let obs = &self.obs;
        if !obs.enabled() {
            return;
        }
        let outcome = match response {
            Response::Error(frame) if frame.kind == ErrorKind::Saturated => "saturated",
            Response::Error(_) => "error",
            _ => "ok",
        };
        obs.counter_add(
            Clock::Wall,
            "nnrt_rpc_requests_total",
            &[("kind", kind), ("outcome", outcome)],
            1,
        );
        obs.observe(
            Clock::Wall,
            "nnrt_rpc_latency_seconds",
            &[("kind", kind)],
            started.elapsed().as_secs_f64(),
        );
        obs.event(
            Clock::Wall,
            EventKind::RpcRequest,
            self.epoch.elapsed().as_secs_f64(),
            None,
            None,
            format!("{kind}: {outcome}"),
        );
    }

    /// Resolves the model, names the job, and admits it.
    fn submit(&mut self, spec: SubmitSpec) -> Response {
        if spec.batch > MAX_BATCH as u64 {
            return Response::Error(ErrorFrame {
                kind: ErrorKind::BadRequest,
                message: format!("batch {} exceeds the limit of {MAX_BATCH}", spec.batch),
                retry_after_secs: None,
            });
        }
        let graph_key = (spec.model.clone(), spec.batch);
        let graph = match self.graphs.get(&graph_key) {
            Some(g) => g.clone(),
            None => {
                let batch = (spec.batch > 0).then_some(spec.batch as usize);
                match nnrt_models::by_name(&spec.model, batch) {
                    Some(model) => {
                        if self.graphs.len() < GRAPH_CACHE_CAP {
                            self.graphs.insert(graph_key, model.graph.clone());
                        }
                        model.graph
                    }
                    None => {
                        return Response::Error(ErrorFrame {
                            kind: ErrorKind::UnknownModel,
                            message: format!("unknown model `{}`", spec.model),
                            retry_after_secs: None,
                        })
                    }
                }
            }
        };
        let name = if spec.name.is_empty() {
            format!("{}-{}", spec.model, self.fleet.next_job_id())
        } else {
            spec.name
        };
        let job = JobSpec {
            name,
            model: spec.model,
            graph,
            steps: spec.steps,
            priority: spec.priority,
            weight: spec.weight,
        };
        match self.fleet.submit(job) {
            Ok(id) => Response::Submitted { job_id: id.0 },
            Err(
                ref e @ AdmitError::Saturated {
                    retry_after_secs, ..
                },
            ) => Response::Error(ErrorFrame {
                kind: ErrorKind::Saturated,
                message: e.to_string(),
                retry_after_secs: Some(retry_after_secs),
            }),
            Err(e @ AdmitError::EmptyJob { .. }) => Response::Error(ErrorFrame {
                kind: ErrorKind::EmptyJob,
                message: e.to_string(),
                retry_after_secs: None,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_cache_stays_bounded_under_distinct_batches() {
        let fleet = Fleet::new(FleetConfig {
            queue_capacity: 2 * GRAPH_CACHE_CAP,
            ..FleetConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let mut server = Reactor::new(listener, fleet, ServerConfig::default()).expect("reactor");
        for batch in 1..=GRAPH_CACHE_CAP as u64 + 8 {
            let spec = SubmitSpec {
                batch,
                ..SubmitSpec::new("dcgan")
            };
            let response = server.submit(spec);
            assert!(
                matches!(response, Response::Submitted { .. }),
                "batch {batch} must be admitted, got {response:?}"
            );
            assert!(server.graphs.len() <= GRAPH_CACHE_CAP);
        }
        assert_eq!(server.graphs.len(), GRAPH_CACHE_CAP);
    }

    #[test]
    fn oversized_batches_are_refused_before_a_graph_is_built() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let mut server = Reactor::new(
            listener,
            Fleet::new(FleetConfig::default()),
            ServerConfig::default(),
        )
        .expect("reactor");
        for batch in [MAX_BATCH as u64 + 1, 1 << 40, 1 << 62, u64::MAX] {
            let spec = SubmitSpec {
                batch,
                ..SubmitSpec::new("resnet50")
            };
            match server.submit(spec) {
                Response::Error(frame) => assert_eq!(frame.kind, ErrorKind::BadRequest),
                other => panic!("batch {batch} must be refused, got {other:?}"),
            }
        }
        assert!(
            server.graphs.is_empty(),
            "no graph built for a refused batch"
        );
        let spec = SubmitSpec {
            batch: MAX_BATCH as u64,
            ..SubmitSpec::new("dcgan")
        };
        assert!(matches!(server.submit(spec), Response::Submitted { .. }));
    }
}
