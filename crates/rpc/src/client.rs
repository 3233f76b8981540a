//! The blocking client: connect/read timeouts and honor-the-hint retry.
//!
//! [`RpcClient`] speaks one request/response pair at a time over a single
//! connection. Submissions rejected with [`ErrorKind::Saturated`] can be
//! retried through [`RpcClient::submit_with_retry`], whose waits come from
//! a [`JitterBackoff`] — *decorrelated jitter*, not bare exponential
//! doubling, because a saturated server bounces hundreds of clients in the
//! same instant with the same `retry_after_secs` hint, and deterministic
//! backoff marches them all back in lockstep to collide again. Each wait
//! is drawn uniformly from `[base, min(3 × previous, cap)]` with a
//! per-client seed, so the herd spreads out while the expected wait still
//! grows geometrically. No wait ever exceeds the server's hint — the
//! server knows when a slot frees, so the hint is the cap, not the floor.

use crate::protocol::{
    decode, encode, read_frame, write_frame, ErrorFrame, ErrorKind, FrameError, Request, Response,
    SnapshotInfo, SubmitSpec,
};
use nnrt_serve::JobStatus;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// Connection and read deadlines.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-response read deadline (submissions can trigger a cold profile
    /// on the server, so this is generous by default).
    pub read_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(120),
        }
    }
}

/// Retry shaping for [`RpcClient::submit_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Shortest wait after a saturated rejection (the jitter draw's floor).
    pub initial_backoff: Duration,
    /// Ceiling no drawn wait ever exceeds (the server's `retry_after_secs`
    /// hint caps each wait further).
    pub max_backoff: Duration,
    /// Total submission attempts before giving up.
    pub max_attempts: u32,
    /// Seed for the jitter stream. Give each client its own seed (its
    /// index, its connection id) so a herd of bounced clients decorrelates;
    /// the same seed always draws the same waits, keeping tests
    /// deterministic.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            max_attempts: 10,
            jitter_seed: 0,
        }
    }
}

/// Decorrelated-jitter backoff (the AWS architecture blog's variant):
/// each wait is drawn uniformly from `[base, min(3 × previous, cap)]`, so
/// successive waits grow geometrically in expectation while two clients
/// with different seeds almost never wait the same amount — the property
/// that keeps a thundering herd from re-colliding after a shared
/// `Saturated` bounce.
///
/// The draw stream is a seeded splitmix64: deterministic per seed, cheap,
/// and dependency-free.
#[derive(Debug, Clone)]
pub struct JitterBackoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    state: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl JitterBackoff {
    /// A backoff stream shaped by `policy`, seeded by `policy.jitter_seed`.
    pub fn new(policy: &RetryPolicy) -> Self {
        Self::with_seed(policy, policy.jitter_seed)
    }

    /// A backoff stream shaped by `policy` with an explicit seed — the
    /// load-generator path, where every connection derives its seed from
    /// its own index.
    pub fn with_seed(policy: &RetryPolicy, seed: u64) -> Self {
        let base = policy.initial_backoff;
        JitterBackoff {
            base,
            cap: policy.max_backoff.max(base),
            prev: base,
            state: seed,
        }
    }

    /// Draws the next wait: uniform in `[base, min(3 × previous, cap)]`,
    /// then capped by the server's `retry_after_secs` hint if one came with
    /// the rejection (a finite, non-negative hint is an upper bound — the
    /// server knows when a slot frees).
    pub fn next_wait(&mut self, hint_secs: Option<f64>) -> Duration {
        let upper = self.prev.saturating_mul(3).clamp(self.base, self.cap);
        let span = upper.saturating_sub(self.base);
        // 53 uniform bits → f64 in [0, 1), the standard double-precision draw.
        let unit = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        let mut wait = self.base + span.mul_f64(unit);
        self.prev = wait;
        if let Some(hint) = hint_secs {
            if hint.is_finite() && hint >= 0.0 {
                wait = wait.min(Duration::from_secs_f64(hint));
            }
        }
        wait
    }
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The socket could not be reached or died mid-exchange.
    Io(io::Error),
    /// The server's bytes did not decode to a response frame.
    Frame(FrameError),
    /// The server answered with a typed refusal.
    Rejected(ErrorFrame),
    /// The server answered with a well-formed response of the wrong kind.
    Unexpected(String),
    /// Every submission attempt was rejected; `last` is the final refusal.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The last rejection.
        last: ErrorFrame,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected(frame) => {
                write!(f, "rejected ({:?}): {}", frame.kind, frame.message)
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
            ClientError::RetriesExhausted { attempts, last } => write!(
                f,
                "gave up after {attempts} attempts; last rejection ({:?}): {}",
                last.kind, last.message
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            other => ClientError::Frame(other),
        }
    }
}

/// A blocking connection to a [`crate::FleetServer`].
pub struct RpcClient {
    stream: TcpStream,
}

impl RpcClient {
    /// Connects with the default timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit timeouts.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> Result<Self, ClientError> {
        let mut last = io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        );
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        for a in addrs {
            match TcpStream::connect_timeout(&a, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(config.read_timeout))?;
                    let _ = stream.set_nodelay(true);
                    return Ok(RpcClient { stream });
                }
                Err(e) => last = e,
            }
        }
        Err(ClientError::Io(last))
    }

    /// One request/response exchange. Typed server refusals come back as
    /// `Ok(Response::Error(..))`; the convenience wrappers below lift them
    /// into [`ClientError::Rejected`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode(request))?;
        let payload = read_frame(&mut self.stream)?;
        Ok(decode::<Response>(&payload)?)
    }

    /// Submits a job, returning its fleet-unique id.
    pub fn submit(&mut self, spec: &SubmitSpec) -> Result<u64, ClientError> {
        match self.request(&Request::Submit(spec.clone()))? {
            Response::Submitted { job_id } => Ok(job_id),
            Response::Error(frame) => Err(ClientError::Rejected(frame)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Submits with saturation retry: decorrelated-jitter backoff (see
    /// [`JitterBackoff`]) seeded by `policy.jitter_seed`, each wait capped
    /// by both `policy.max_backoff` and the server's `retry_after_secs`
    /// hint. Non-saturation rejections fail immediately.
    pub fn submit_with_retry(
        &mut self,
        spec: &SubmitSpec,
        policy: &RetryPolicy,
    ) -> Result<u64, ClientError> {
        let attempts = policy.max_attempts.max(1);
        let mut backoff = JitterBackoff::new(policy);
        for _ in 1..attempts {
            match self.submit(spec) {
                Err(ClientError::Rejected(frame)) if frame.kind == ErrorKind::Saturated => {
                    thread::sleep(backoff.next_wait(frame.retry_after_secs));
                }
                other => return other,
            }
        }
        match self.submit(spec) {
            Err(ClientError::Rejected(frame)) if frame.kind == ErrorKind::Saturated => {
                Err(ClientError::RetriesExhausted {
                    attempts,
                    last: frame,
                })
            }
            other => other,
        }
    }

    /// One job's status.
    pub fn status(&mut self, job_id: u64) -> Result<JobStatus, ClientError> {
        match self.request(&Request::Status { job_id })? {
            Response::Job(status) => Ok(status),
            Response::Error(frame) => Err(ClientError::Rejected(frame)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Every admitted job's status, sorted by id.
    pub fn list_jobs(&mut self) -> Result<Vec<JobStatus>, ClientError> {
        match self.request(&Request::ListJobs)? {
            Response::Jobs(jobs) => Ok(jobs),
            Response::Error(frame) => Err(ClientError::Rejected(frame)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The fleet's metrics exposition (Prometheus-style text, both clock
    /// domains, gauges refreshed at scrape time).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            Response::Error(frame) => Err(ClientError::Rejected(frame)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The fleet's retained structured events (sim domain first, each in
    /// sequence order).
    pub fn events(&mut self) -> Result<Vec<nnrt_obs::Event>, ClientError> {
        match self.request(&Request::Events)? {
            Response::Events(events) => Ok(events),
            Response::Error(frame) => Err(ClientError::Rejected(frame)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The profile store's counters and snapshot document.
    pub fn snapshot(&mut self) -> Result<SnapshotInfo, ClientError> {
        match self.request(&Request::Snapshot)? {
            Response::Snapshot(info) => Ok(info),
            Response::Error(frame) => Err(ClientError::Rejected(frame)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Gracefully stops the server, returning the final
    /// [`nnrt_serve::FleetReport`] JSON it flushed.
    pub fn shutdown(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Bye { report } => Ok(report),
            Response::Error(frame) => Err(ClientError::Rejected(frame)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            max_attempts: 10,
            jitter_seed: 0,
        }
    }

    #[test]
    fn jitter_waits_stay_within_base_and_cap() {
        let p = policy();
        let mut backoff = JitterBackoff::with_seed(&p, 42);
        let mut prev_upper = p.initial_backoff;
        for _ in 0..64 {
            let wait = backoff.next_wait(None);
            assert!(wait >= p.initial_backoff, "{wait:?} under the base");
            assert!(wait <= p.max_backoff, "{wait:?} over the cap");
            // Decorrelated: each draw is bounded by 3× the previous draw.
            let upper = prev_upper.saturating_mul(3).min(p.max_backoff);
            assert!(wait <= upper, "{wait:?} over 3× the previous wait");
            prev_upper = wait.max(p.initial_backoff);
        }
    }

    #[test]
    fn same_seed_draws_the_same_waits_different_seeds_diverge() {
        let p = policy();
        let draws = |seed: u64| -> Vec<Duration> {
            let mut b = JitterBackoff::with_seed(&p, seed);
            (0..16).map(|_| b.next_wait(None)).collect()
        };
        assert_eq!(draws(7), draws(7), "a seed fully determines the stream");
        let a = draws(1);
        let b = draws(2);
        assert_ne!(a, b, "distinct seeds must decorrelate");
        // Lockstep is the failure mode this exists to prevent: two seeds
        // should disagree on nearly every draw, not just one.
        let disagreements = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(disagreements >= 12, "only {disagreements}/16 draws differ");
    }

    #[test]
    fn the_server_hint_caps_every_wait() {
        let p = policy();
        let mut backoff = JitterBackoff::with_seed(&p, 3);
        for _ in 0..32 {
            let wait = backoff.next_wait(Some(0.001));
            assert!(wait <= Duration::from_millis(1), "{wait:?} over the hint");
        }
        // Garbage hints (negative, infinite, NaN) are ignored, not obeyed.
        let mut backoff = JitterBackoff::with_seed(&p, 3);
        for hint in [Some(-1.0), Some(f64::INFINITY), Some(f64::NAN), None] {
            let wait = backoff.next_wait(hint);
            assert!(wait >= p.initial_backoff && wait <= p.max_backoff);
        }
    }

    #[test]
    fn waits_grow_geometrically_in_expectation() {
        // Averaged over many seeds, the k-th wait should clearly exceed the
        // first — the backoff still backs off, jitter or not.
        let p = RetryPolicy {
            max_backoff: Duration::from_secs(60),
            ..policy()
        };
        let (mut first_sum, mut fifth_sum) = (0.0f64, 0.0f64);
        for seed in 0..200 {
            let mut b = JitterBackoff::with_seed(&p, seed);
            let waits: Vec<f64> = (0..5).map(|_| b.next_wait(None).as_secs_f64()).collect();
            first_sum += waits[0];
            fifth_sum += waits[4];
        }
        assert!(
            fifth_sum > first_sum * 3.0,
            "fifth-wait mass {fifth_sum:.4}s vs first {first_sum:.4}s"
        );
    }
}
