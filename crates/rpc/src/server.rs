//! The event-loop TCP front-end that owns a [`Fleet`].
//!
//! ```text
//!  event-loop thread (one, owns every socket)
//!  ┌───────────────────────────────────────────────────────────────┐
//!  │ poller: epoll / poll(2)  ◀── waker pipe ◀──────────────┐      │
//!  │   ├─ listener readable ─▶ accept → register conn       │      │
//!  │   └─ conn readable/writable ─▶ per-connection machine  │      │
//!  │        read-accumulate ▸ decode frames ▸ claim slots   │      │
//!  │        ▸ flush answered slots in request order         │      │
//!  └───────────┬───────────────────────────────▲────────────┘      │
//!              │ bounded command inbox          │ reply channel ───┘
//!              │ (full ⇒ typed Saturated)       │ (conn, seq, response)
//!              ▼                                │
//!  service thread: drain commands ▸ idle-tick the fleet ▸ repeat
//! ```
//!
//! One thread owns every socket (the event loop) and one thread owns the
//! `Fleet` (the service loop) — no locks on either side. The event loop
//! multiplexes thousands of connections through a readiness poller
//! ([`crate::poll`]): each connection is a state machine
//! ([`crate::conn`]) that accumulates bytes, decodes length-prefixed
//! frames, claims an ordered response slot per request, and write-drains
//! its outbox when the socket accepts bytes. Requests cross to the service
//! thread through the same bounded command inbox the threaded server used;
//! replies come back tagged `(connection, seq)` and a self-pipe waker
//! knocks the poller out of its wait.
//!
//! Connections are *pipelined*: a client may send many frames without
//! awaiting responses, and responses flush strictly in request order.
//! Backpressure is typed and layered: a full admission queue or a full
//! command inbox answers [`ErrorKind::Saturated`] (with a
//! `retry_after_secs` hint), a connection over [`ServerConfig::max_connections`]
//! gets one `Saturated` frame and a close, and a connection whose outbox
//! backs up past the high-water mark simply stops being read until it
//! drains — TCP flow control carries the stall back to the client.
//!
//! The service loop is unchanged from the threaded server: commands apply
//! in arrival order, and between commands the fleet advances through
//! [`Fleet::tick`] — the same event order [`Fleet::run`] uses, which
//! preserves chaos-event, checkpoint, and report semantics.
//! [`DrainPolicy::OnShutdown`] holds all queued work until the `Shutdown`
//! request and then drains through [`Fleet::run`] — so a job mix submitted
//! over the wire produces a [`FleetReport`] byte-identical to the same mix
//! pushed through the in-process `Fleet` API. [`DrainPolicy::Eager`] is the
//! live-service mode: the fleet executes between requests, and status
//! queries observe jobs mid-flight.
//!
//! [`FleetReport`]: nnrt_serve::FleetReport

use crate::conn::Connection;
use crate::poll::{PollEvent, Poller, Waker, READABLE};
use crate::protocol::{ErrorFrame, ErrorKind, Request, Response, SnapshotInfo, SubmitSpec};
use nnrt_graph::DataflowGraph;
use nnrt_obs::{Clock, EventKind, Obs};
use nnrt_serve::{AdmitError, Fleet, FleetConfig, JobId, JobSpec};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Retry hint carried by inbox-full rejections, seconds. The service loop
/// drains the inbox every iteration, so this only needs to cover one
/// scheduling quantum — but it must be positive, like every `Saturated`
/// hint.
pub const INBOX_RETRY_SECS: f64 = 0.05;

/// Poll interval of the idle service loop, wall-clock.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Longest the event loop sleeps in the poller before re-checking the stop
/// flag and housekeeping deadlines, even with no socket activity.
const EVENT_WAIT_CAP: Duration = Duration::from_millis(500);

/// Cadence of the housekeeping pass (idle sweep + gauge refresh) under
/// constant socket activity, so a hot loop doesn't walk every connection on
/// every wakeup.
const HOUSEKEEPING_INTERVAL: Duration = Duration::from_millis(100);

/// How long the shutdown drain keeps flushing outstanding responses (the
/// `Bye` frame above all) before dropping whatever connections remain.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);

/// Default cap on concurrently served connections; accepts beyond it bounce
/// with a typed [`ErrorKind::Saturated`] frame. The event loop spends a few
/// hundred bytes per idle connection rather than a thread, so the default
/// is sized for thousands of clients.
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;

/// Default per-connection idle read timeout: a client that holds a
/// connection open without speaking for this long (and has no response in
/// flight) is disconnected, freeing its slot.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Default cap on in-flight pipelined requests per connection; frames
/// beyond it stay in the kernel's receive queue until a slot frees.
pub const DEFAULT_PIPELINE_DEPTH: usize = 16;

/// Retry hint carried by connection-cap rejections, seconds.
pub const CONNECTION_RETRY_SECS: f64 = 0.5;

/// Most `(model, batch)` graphs the service thread caches. The key is
/// client-chosen, so past the cap a new key's graph is built for its
/// submission but not kept.
const GRAPH_CACHE_CAP: usize = 64;

/// When the fleet executes queued work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainPolicy {
    /// Live service: the fleet ticks whenever the command inbox is idle, so
    /// jobs run (and complete, freeing queue capacity) between requests.
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
    /// Command-inbox depth; requests beyond it bounce with `Saturated`.
    pub inbox_capacity: usize,
    /// Where the graceful shutdown writes the profile-store snapshot
    /// (`None` skips persistence).
    pub snapshot_path: Option<PathBuf>,
    /// Cap on concurrently served connections; accepts beyond it answer one
    /// `Saturated` error frame and close.
    pub max_connections: usize,
    /// Per-connection idle read timeout: a connection with no socket
    /// activity and no in-flight request for this long is closed
    /// (`Duration::ZERO` disables the sweep).
    pub idle_timeout: Duration,
    /// Cap on in-flight pipelined requests per connection: further frames
    /// wait in kernel/userspace buffers until a response slot frees.
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

/// One decoded request tagged with the connection and pipeline slot its
/// response must route back to.
struct Command {
    conn: u64,
    seq: u64,
    request: Request,
}

/// The service thread's answer to one command.
struct Reply {
    conn: u64,
    seq: u64,
    response: Response,
}

/// The networked fleet service: one event-loop thread multiplexing every
/// socket through a readiness poller, and one service thread that owns the
/// [`Fleet`].
pub struct FleetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    event_handle: JoinHandle<()>,
    service_handle: JoinHandle<()>,
    final_report: Arc<Mutex<Option<String>>>,
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
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let final_report = Arc::new(Mutex::new(None));
        let (inbox, commands) = mpsc::sync_channel(config.inbox_capacity.max(1));
        let (reply_tx, replies) = mpsc::channel();
        let waker = Waker::new()?;
        let obs = fleet.obs();

        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, READABLE)?;
        poller.register(waker.read_fd(), TOKEN_WAKER, READABLE)?;

        let service_handle = {
            let stop = Arc::clone(&stop);
            let final_report = Arc::clone(&final_report);
            let waker = waker.clone();
            let config = config.clone();
            thread::spawn(move || {
                ServiceLoop {
                    fleet,
                    config,
                    commands,
                    replies: reply_tx,
                    waker,
                    stop,
                    final_report,
                    graphs: HashMap::new(),
                    epoch: Instant::now(),
                }
                .run()
            })
        };

        let event_handle = {
            let stop = Arc::clone(&stop);
            let waker = waker.clone();
            thread::spawn(move || {
                EventLoop {
                    listener,
                    poller,
                    waker,
                    inbox,
                    replies,
                    stop,
                    obs,
                    max_connections: config.max_connections.max(1),
                    idle_timeout: config.idle_timeout,
                    pipeline_depth: config.pipeline_depth.max(1),
                    conns: Vec::new(),
                    free: Vec::new(),
                    by_id: HashMap::new(),
                    next_conn_id: 0,
                    counted_live: 0,
                    last_conn_gauge: -1.0,
                    last_outbox_gauge: -1.0,
                }
                .run()
            })
        };

        Ok(FleetServer {
            addr,
            stop,
            waker,
            event_handle,
            service_handle,
            final_report,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `Shutdown` request stops the server, then returns the
    /// final [`nnrt_serve::FleetReport`] JSON the shutdown flushed (`None`
    /// only if the service thread died without one).
    pub fn join(self) -> Option<String> {
        let _ = self.service_handle.join();
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        let _ = self.event_handle.join();
        self.final_report.lock().expect("report slot").take()
    }
}

/// Poller token of the TCP listener.
const TOKEN_LISTENER: usize = 0;
/// Poller token of the cross-thread waker pipe.
const TOKEN_WAKER: usize = 1;
/// Connection slab slot `i` registers under token `i + CONN_TOKEN_BASE`.
const CONN_TOKEN_BASE: usize = 2;

/// The single thread that owns every socket.
struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    waker: Waker,
    inbox: SyncSender<Command>,
    replies: Receiver<Reply>,
    stop: Arc<AtomicBool>,
    obs: Arc<Obs>,
    max_connections: usize,
    idle_timeout: Duration,
    pipeline_depth: usize,
    /// Connection slab: poller tokens index it directly (offset by
    /// [`CONN_TOKEN_BASE`]); freed slots are reused via `free`.
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    /// Connection id → slab slot. Ids are never reused, so a reply for a
    /// connection that died routes nowhere instead of to a slot's new
    /// tenant.
    by_id: HashMap<u64, usize>,
    next_conn_id: u64,
    /// Connections currently holding a `max_connections` slot (cap-bounced
    /// ones don't count).
    counted_live: usize,
    last_conn_gauge: f64,
    last_outbox_gauge: f64,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut dirty: Vec<usize> = Vec::new();
        let mut last_housekeeping = Instant::now();
        loop {
            if self.poller.wait(&mut events, Some(EVENT_WAIT_CAP)).is_err() {
                break;
            }
            dirty.clear();
            let mut accept_ready = false;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => self.waker.drain(),
                    token => {
                        let slot = token - CONN_TOKEN_BASE;
                        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                            if ev.readable {
                                conn.on_readable();
                            }
                            dirty.push(slot);
                        }
                    }
                }
            }
            if accept_ready {
                self.accept_all(&mut dirty);
            }
            let service_dead = self.drain_replies(&mut dirty);
            dirty.sort_unstable();
            dirty.dedup();
            for &slot in dirty.iter() {
                self.pump(slot);
            }
            if last_housekeeping.elapsed() >= HOUSEKEEPING_INTERVAL {
                last_housekeeping = Instant::now();
                self.sweep_idle();
                self.refresh_gauges();
            }
            if service_dead || self.stop.load(Ordering::SeqCst) {
                self.shutdown_drain();
                return;
            }
        }
    }

    /// Accepts every pending connection; over the cap, a connection is
    /// created only to carry one typed `Saturated` frame and close.
    fn accept_all(&mut self, dirty: &mut Vec<usize>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    let conn = if self.counted_live >= self.max_connections {
                        self.obs.counter_add(
                            Clock::Wall,
                            "nnrt_rpc_connections_rejected_total",
                            &[],
                            1,
                        );
                        Connection::reject(
                            id,
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
                        Connection::new(id, stream, true)
                    };
                    let Ok(mut conn) = conn else { continue };
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let interest = conn.desired_interest(self.pipeline_depth);
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
                    self.by_id.insert(id, slot);
                    self.conns[slot] = Some(conn);
                    dirty.push(slot);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Routes every buffered service reply into its connection's pipeline
    /// slot. Returns `true` once the service thread is gone (its sender
    /// dropped).
    fn drain_replies(&mut self, dirty: &mut Vec<usize>) -> bool {
        loop {
            match self.replies.try_recv() {
                Ok(reply) => {
                    if let Some(slot) = self.route_reply(reply) {
                        dirty.push(slot);
                    }
                }
                Err(mpsc::TryRecvError::Empty) => return false,
                Err(mpsc::TryRecvError::Disconnected) => return true,
            }
        }
    }

    fn route_reply(&mut self, reply: Reply) -> Option<usize> {
        let &slot = self.by_id.get(&reply.conn)?;
        let conn = self.conns.get_mut(slot)?.as_mut()?;
        conn.fill(reply.seq, reply.response);
        Some(slot)
    }

    /// Advances one connection's state machine: flush what's answered,
    /// parse newly buffered frames into the inbox (answering saturation at
    /// the edge), flush again, then reconcile poller interest — or close.
    fn pump(&mut self, slot: usize) {
        let inbox = &self.inbox;
        let obs = &self.obs;
        let depth = self.pipeline_depth;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut sink = |conn_id: u64, seq: u64, request: Request| -> Option<Response> {
            let kind = request.kind();
            match inbox.try_send(Command {
                conn: conn_id,
                seq,
                request,
            }) {
                Ok(()) => None,
                Err(TrySendError::Full(_)) => {
                    // The inbox-full rejection never reaches the service
                    // loop, so it is accounted here: same series,
                    // `outcome="saturated"`.
                    obs.counter_add(
                        Clock::Wall,
                        "nnrt_rpc_requests_total",
                        &[("kind", kind), ("outcome", "saturated")],
                        1,
                    );
                    Some(Response::Error(ErrorFrame {
                        kind: ErrorKind::Saturated,
                        message: "server command inbox is full".to_string(),
                        retry_after_secs: Some(INBOX_RETRY_SECS),
                    }))
                }
                Err(TrySendError::Disconnected(_)) => Some(Response::Error(ErrorFrame {
                    kind: ErrorKind::ShuttingDown,
                    message: "server is shutting down".to_string(),
                    retry_after_secs: None,
                })),
            }
        };
        loop {
            conn.flush();
            if conn.parse_frames(depth, &mut sink) == 0 {
                break;
            }
        }
        conn.flush();
        let fd = conn.stream.as_raw_fd();
        let should_close = conn.should_close();
        let desired = conn.desired_interest(depth);
        let registered = conn.registered_interest;
        if should_close {
            self.close(slot);
        } else if desired != registered
            && self
                .poller
                .reregister(fd, slot + CONN_TOKEN_BASE, desired)
                .is_ok()
        {
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                conn.registered_interest = desired;
            }
        }
    }

    /// Deregisters and drops one connection, freeing its slab slot (and its
    /// `max_connections` slot, if it held one).
    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.by_id.remove(&conn.id);
            if conn.counted {
                self.counted_live = self.counted_live.saturating_sub(1);
            }
            self.free.push(slot);
        }
    }

    /// Closes connections that have been silent past the idle timeout and
    /// have no request in flight (a connection waiting on a slow profile is
    /// busy, not idle).
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
                (!conn.awaiting_service()
                    && now.duration_since(conn.last_activity) >= self.idle_timeout)
                    .then_some(slot)
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

    /// Final drain: stop accepting, route the service thread's last replies
    /// (the `Bye` frame above all), answer everything still in flight with
    /// `ShuttingDown`, and flush for up to [`SHUTDOWN_GRACE`] before
    /// dropping the remaining sockets.
    fn shutdown_drain(&mut self) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        let deadline = Instant::now() + SHUTDOWN_GRACE;

        // The service thread drops its reply sender when its loop returns
        // (right after posting the Bye), so this terminates promptly; the
        // deadline only guards a wedged service thread.
        while Instant::now() < deadline {
            match self.replies.recv_timeout(Duration::from_millis(50)) {
                Ok(reply) => {
                    self.route_reply(reply);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        let refusal = Response::Error(ErrorFrame {
            kind: ErrorKind::ShuttingDown,
            message: "server is shutting down".to_string(),
            retry_after_secs: None,
        });
        for conn in self.conns.iter_mut().flatten() {
            conn.fill_all_unanswered(&refusal);
            conn.begin_close();
        }

        let mut events = Vec::new();
        loop {
            let open: Vec<usize> = (0..self.conns.len())
                .filter(|&s| self.conns[s].is_some())
                .collect();
            if open.is_empty() || Instant::now() >= deadline {
                break;
            }
            for slot in open {
                self.pump(slot);
            }
            if self.conns.iter().all(Option::is_none) {
                break;
            }
            let _ = self
                .poller
                .wait(&mut events, Some(Duration::from_millis(20)));
        }
    }
}

/// The single thread that owns the fleet.
struct ServiceLoop {
    fleet: Fleet,
    config: ServerConfig,
    commands: Receiver<Command>,
    replies: Sender<Reply>,
    waker: Waker,
    stop: Arc<AtomicBool>,
    final_report: Arc<Mutex<Option<String>>>,
    /// `(model, batch)` → built graph, so repeated submissions of one model
    /// family do not rebuild multi-thousand-op graphs per request. Graph
    /// clones share one body, so every job admitted from the cache holds
    /// the cached graph itself, not a copy. Holds at most
    /// [`GRAPH_CACHE_CAP`] keys.
    graphs: HashMap<(String, u64), DataflowGraph>,
    /// Wall-clock origin for RPC event timestamps.
    epoch: Instant,
}

impl ServiceLoop {
    fn run(mut self) {
        loop {
            // Commands take priority over fleet progress.
            loop {
                match self.commands.try_recv() {
                    Ok(cmd) => {
                        if !self.handle(cmd) {
                            return;
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => return,
                }
            }
            let progressed = match self.config.drain {
                DrainPolicy::Eager => self.fleet.tick(),
                DrainPolicy::OnShutdown => false,
            };
            if !progressed {
                // Idle (or holding): sleep on the inbox instead of spinning.
                match self.commands.recv_timeout(POLL_INTERVAL) {
                    Ok(cmd) => {
                        if !self.handle(cmd) {
                            return;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }
        }
    }

    /// Posts one answer back to the event loop and rings its doorbell.
    fn reply(&self, conn: u64, seq: u64, response: Response) {
        let _ = self.replies.send(Reply {
            conn,
            seq,
            response,
        });
        self.waker.wake();
    }

    /// Applies one command; `false` stops the service loop.
    fn handle(&mut self, cmd: Command) -> bool {
        let started = Instant::now();
        let kind = cmd.request.kind();
        let response = match cmd.request {
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
                    text: self.fleet.obs().expose(None),
                }
            }
            Request::Events => Response::Events(self.fleet.obs().events_snapshot(None)),
            Request::Shutdown => {
                // Drain every queued, resident, and evicted job through the
                // same code path the in-process API uses, then flush.
                let report = self.fleet.run().to_json();
                if let Some(path) = &self.config.snapshot_path {
                    let snapshot = self.fleet.store().snapshot();
                    if let Err(e) = nnrt_serve::write_atomic(path, snapshot.as_bytes()) {
                        eprintln!("nnrt-rpc: snapshot write to {} failed: {e}", path.display());
                    }
                }
                *self.final_report.lock().expect("report slot") = Some(report.clone());
                self.stop.store(true, Ordering::SeqCst);
                let response = Response::Bye { report };
                self.observe_rpc(kind, started, &response);
                self.reply(cmd.conn, cmd.seq, response);
                return false;
            }
        };
        self.observe_rpc(kind, started, &response);
        self.reply(cmd.conn, cmd.seq, response);
        true
    }

    /// Accounts one handled request in the wall domain: a per-kind count
    /// split by outcome, a per-kind service-latency histogram, and a
    /// structured `RpcRequest` event.
    fn observe_rpc(&self, kind: &'static str, started: Instant, response: &Response) {
        let obs = self.fleet.obs();
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
        let (_inbox, commands) = mpsc::sync_channel(1);
        let (replies, _answers) = mpsc::channel();
        let mut service = ServiceLoop {
            fleet: Fleet::new(FleetConfig {
                queue_capacity: 2 * GRAPH_CACHE_CAP,
                ..FleetConfig::default()
            }),
            config: ServerConfig::default(),
            commands,
            replies,
            waker: Waker::new().expect("waker"),
            stop: Arc::new(AtomicBool::new(false)),
            final_report: Arc::new(Mutex::new(None)),
            graphs: HashMap::new(),
            epoch: Instant::now(),
        };
        for batch in 1..=GRAPH_CACHE_CAP as u64 + 8 {
            let spec = SubmitSpec {
                batch,
                ..SubmitSpec::new("dcgan")
            };
            let response = service.submit(spec);
            assert!(
                matches!(response, Response::Submitted { .. }),
                "batch {batch} must be admitted, got {response:?}"
            );
            assert!(service.graphs.len() <= GRAPH_CACHE_CAP);
        }
        assert_eq!(service.graphs.len(), GRAPH_CACHE_CAP);
    }
}
