//! # nnrt-rpc
//!
//! A networked job-submission front-end for the [`nnrt_serve`] fleet: the
//! piece that turns the paper's runtime (*"Runtime Concurrency Control and
//! Operation Scheduling for High Performance Neural Network Training"*,
//! Liu et al., IPDPS 2019) from an in-process simulation into a service
//! external clients submit jobs to over a socket.
//!
//! Four layers, all on `std::net` and one server thread (no async runtime,
//! works offline):
//!
//! * [`protocol`] — versioned, length-prefixed JSON frames; tagged
//!   [`Request`]/[`Response`] messages; a typed error taxonomy whose
//!   `Saturated` frames carry the fleet's concrete `retry_after_secs`
//!   backpressure hint over the wire.
//! * [`poll`] — a small vendored readiness poller over `poll(2)`, so one
//!   thread can multiplex every nonblocking socket (each wait costs
//!   O(watched sockets)).
//! * [`server`] — [`FleetServer`]: one reactor thread owns every socket
//!   and the [`nnrt_serve::Fleet`]. It drives each connection as a
//!   pipelining state machine (read-accumulate → decode a bounded number of
//!   frames per turn → handle each inline → write-drain), and between turns
//!   ticks the fleet through the same event order as
//!   [`nnrt_serve::Fleet::run`], so chaos events, checkpoints, and
//!   determinism survive the move onto the network; a graceful shutdown
//!   drains the fleet and flushes the final report plus the profile-store
//!   snapshot. Backpressure is layered: typed `Saturated` frames at the
//!   admission queue, one-frame bounces at the connection cap, and outbox
//!   high-water marks that pause parsing and reading for slow consumers.
//! * [`client`] — [`RpcClient`]: blocking, with connect/read timeouts and
//!   honor-the-hint submission retry (seeded decorrelated-jitter backoff
//!   capped at the server's `retry_after_secs`, so a thousand bounced
//!   clients don't reconnect in lockstep).
//!
//! ```no_run
//! use nnrt_rpc::{FleetServer, RpcClient, ServerConfig, SubmitSpec};
//!
//! let server = FleetServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = RpcClient::connect(server.local_addr()).unwrap();
//! let job = client.submit(&SubmitSpec::new("dcgan")).unwrap();
//! println!("{:?}", client.status(job).unwrap());
//! let report = client.shutdown().unwrap();
//! println!("{report}");
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
mod conn;
pub mod poll;
pub mod protocol;
pub mod server;

pub use client::{ClientConfig, ClientError, JitterBackoff, RetryPolicy, RpcClient};
pub use protocol::{
    decode, encode, frame_bytes, frame_from_buf, read_frame, write_frame, ErrorFrame, ErrorKind,
    FrameError, Request, Response, SnapshotInfo, SubmitSpec, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{
    DrainPolicy, FleetServer, ServerConfig, CONNECTION_RETRY_SECS, DEFAULT_IDLE_TIMEOUT,
    DEFAULT_MAX_CONNECTIONS, DEFAULT_PIPELINE_DEPTH,
};
