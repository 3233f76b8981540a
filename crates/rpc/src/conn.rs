//! Per-connection state machine for the reactor.
//!
//! One [`Connection`] owns a nonblocking socket and moves bytes through
//! three stages, each driven by readiness rather than by a blocked thread:
//!
//! ```text
//! readable ─▶ rbuf accumulate ─▶ frame parse + handle ─▶ wbuf drain
//!             (on_readable)      (parse_frames)          (flush, on writable)
//! ```
//!
//! **Pipelining.** A client may send many frames without awaiting
//! responses. [`Connection::parse_frames`] hands each decoded request to the
//! reactor's handler and appends the answer to the outbox at once, so
//! responses leave in request order by construction. One call handles at
//! most a budget of frames (the server's pipeline depth); frames beyond it
//! stay buffered, the connection reports [`Connection::has_backlog`] and
//! stops asking to read, and the reactor revisits it on its next turn.
//!
//! **Backpressure watermarks.** The outbound buffer has a high-water mark:
//! once a slow reader lets it grow past [`HIGH_WATER`], parsing stops and
//! the connection's desired interest drops `READABLE` (the poller stops
//! reporting its bytes, TCP flow control pushes back on the client) until
//! the outbox drains below [`LOW_WATER`].

use crate::protocol::{
    decode, encode, frame_bytes, frame_from_buf, ErrorFrame, ErrorKind, FrameError, Request,
    Response,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Outbox bytes at which a connection stops parsing and reading requests.
pub(crate) const HIGH_WATER: usize = 256 * 1024;

/// Outbox bytes below which a read-paused connection resumes reading.
pub(crate) const LOW_WATER: usize = 64 * 1024;

/// Bytes pulled off the socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Soft cap on the unparsed inbound buffer: one maximum frame plus its
/// header always fits, so a compliant client can never deadlock, but a
/// firehose of tiny frames cannot grow the buffer without bound while the
/// per-turn budget holds parsing back.
const RBUF_CAP: usize = crate::protocol::MAX_FRAME_LEN as usize + 5;

/// One client connection owned by the reactor.
pub(crate) struct Connection {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Whether this connection holds a slot under `max_connections`
    /// (cap-bounced connections don't — they exist only to carry one
    /// `Saturated` frame out).
    pub counted: bool,
    /// Wall-clock instant of the last byte moved in either direction; the
    /// idle sweep compares it against the server's idle timeout.
    pub last_activity: Instant,
    /// The interest bits currently registered with the poller; the pump
    /// only issues `reregister` syscalls when the desired bits differ.
    pub registered_interest: u8,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    close_after_flush: bool,
    peer_closed: bool,
    broken: bool,
    read_paused: bool,
}

impl Connection {
    /// Wraps an accepted socket: nonblocking, Nagle off.
    pub fn new(stream: TcpStream, counted: bool) -> io::Result<Connection> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            counted,
            last_activity: Instant::now(),
            registered_interest: 0,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            close_after_flush: false,
            peer_closed: false,
            broken: false,
            read_paused: false,
        })
    }

    /// A cap-bounced connection: it carries exactly one response frame (the
    /// typed `Saturated` refusal) and closes once it drains.
    pub fn reject(stream: TcpStream, response: Response) -> io::Result<Connection> {
        let mut conn = Connection::new(stream, false)?;
        conn.push(&response);
        conn.close_after_flush = true;
        Ok(conn)
    }

    /// Drains the socket's receive queue into the accumulation buffer
    /// (until `WouldBlock`, EOF, or the buffer's soft cap).
    pub fn on_readable(&mut self) {
        if self.broken || self.peer_closed {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        while self.rbuf.len() < RBUF_CAP {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
    }

    /// Parses up to `budget` complete frames off the front of the inbound
    /// buffer, answers each well-formed request through `handle`, and
    /// appends every answer to the outbox in request order. Parsing stops
    /// early once the outbox reaches [`HIGH_WATER`]. A `Bye` answer is the
    /// last frame the client gets: the connection closes once it drains.
    ///
    /// Malformed payloads inside an intact frame answer `BadRequest` and
    /// the connection lives on (length-prefixed framing stays synchronized);
    /// frame-level poison (bad length prefix, version skew) answers once
    /// and then closes, because the byte stream can never resynchronize.
    ///
    /// Returns the number of frames consumed.
    pub fn parse_frames(
        &mut self,
        budget: usize,
        mut handle: impl FnMut(Request) -> Response,
    ) -> usize {
        let mut parsed = 0;
        let mut start = 0;
        while parsed < budget && self.can_parse() {
            match frame_from_buf(&self.rbuf[start..]) {
                Ok(None) => break,
                Ok(Some((payload, consumed))) => {
                    start += consumed;
                    parsed += 1;
                    let response = match decode::<Request>(&payload) {
                        Ok(request) => handle(request),
                        Err(e) => Response::Error(ErrorFrame {
                            kind: ErrorKind::BadRequest,
                            message: e.to_string(),
                            retry_after_secs: None,
                        }),
                    };
                    if matches!(response, Response::Bye { .. }) {
                        self.close_after_flush = true;
                    }
                    self.push(&response);
                }
                Err(e) => {
                    let kind = match &e {
                        FrameError::Version(_) => ErrorKind::VersionMismatch,
                        _ => ErrorKind::BadRequest,
                    };
                    self.push(&Response::Error(ErrorFrame {
                        kind,
                        message: e.to_string(),
                        retry_after_secs: None,
                    }));
                    self.rbuf.clear();
                    self.close_after_flush = true;
                    return parsed;
                }
            }
        }
        // One shift per call, not one per frame.
        self.rbuf.drain(..start);
        parsed
    }

    /// Whether parsing may continue: not closing, and the outbox below
    /// [`HIGH_WATER`].
    fn can_parse(&self) -> bool {
        !self.close_after_flush && !self.broken && self.outbox_bytes() < HIGH_WATER
    }

    /// Whether a complete frame waits in the inbound buffer and may be
    /// parsed now. The poller only reports bytes still in the socket, so
    /// the reactor must revisit such a connection itself.
    pub fn has_backlog(&self) -> bool {
        self.can_parse() && self.has_buffered_frames()
    }

    /// Serializes one response into the outbox.
    fn push(&mut self, response: &Response) {
        self.wbuf.extend_from_slice(&frame_bytes(&encode(response)));
    }

    /// Drains as much of the outbox as the socket accepts without blocking.
    pub fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > HIGH_WATER {
            // Reclaim the drained prefix once it outweighs what remains.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// Bytes serialized but not yet accepted by the socket.
    pub fn outbox_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The interest bits this connection wants from the poller right now:
    /// `WRITABLE` while the outbox holds bytes; `READABLE` unless closing,
    /// holding unparsed frames, or read-paused by the outbox watermark
    /// (pause at [`HIGH_WATER`], resume at [`LOW_WATER`] — hysteresis, so a
    /// hovering outbox doesn't flap interest every frame).
    pub fn desired_interest(&mut self) -> u8 {
        let out = self.outbox_bytes();
        if out >= HIGH_WATER {
            self.read_paused = true;
        } else if out <= LOW_WATER {
            self.read_paused = false;
        }
        let mut interest = 0;
        if out > 0 {
            interest |= crate::poll::WRITABLE;
        }
        let closing = self.close_after_flush || self.peer_closed || self.broken;
        if !closing && !self.read_paused && !self.has_buffered_frames() {
            interest |= crate::poll::READABLE;
        }
        interest
    }

    /// Begins a graceful close: everything already answered still flushes,
    /// then the socket drops.
    pub fn begin_close(&mut self) {
        self.close_after_flush = true;
    }

    /// Whether the reactor should drop this connection now: the socket
    /// broke, or it is closing (client EOF or server-initiated) with no
    /// response left to deliver.
    pub fn should_close(&self) -> bool {
        self.broken
            || ((self.close_after_flush || self.peer_closed)
                && self.outbox_bytes() == 0
                && (self.close_after_flush || !self.has_buffered_frames()))
    }

    /// Whether the inbound buffer still holds at least one complete frame —
    /// a half-closed client (sent its pipeline, shut down its write side)
    /// is served to the last frame before the connection closes.
    fn has_buffered_frames(&self) -> bool {
        matches!(frame_from_buf(&self.rbuf), Ok(Some(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, Request};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn push_request(conn: &mut Connection, req: &Request) {
        conn.rbuf.extend_from_slice(&frame_bytes(&encode(req)));
    }

    fn read_responses(client: &mut TcpStream, n: usize) -> Vec<Response> {
        client.set_nonblocking(false).unwrap();
        (0..n)
            .map(|_| decode(&read_frame(client).unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn garbage_payload_answers_bad_request_without_poisoning_the_pipeline() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, true).unwrap();
        push_request(&mut conn, &Request::ListJobs);
        conn.rbuf
            .extend_from_slice(&frame_bytes("{\"type\": \"fly\"}"));
        push_request(&mut conn, &Request::ListJobs);

        let mut kinds = Vec::new();
        let parsed = conn.parse_frames(16, |req| {
            kinds.push(req.kind());
            Response::Jobs(vec![])
        });
        // Both well-formed requests reached the handler; the garbage one got
        // a BadRequest in between, in request order, and the connection is
        // still open.
        assert_eq!(parsed, 3);
        assert_eq!(kinds, vec!["list_jobs", "list_jobs"]);
        conn.flush();
        assert!(!conn.should_close());
        let responses = read_responses(&mut client, 3);
        assert_eq!(responses[0], Response::Jobs(vec![]));
        assert!(matches!(
            &responses[1],
            Response::Error(frame) if frame.kind == ErrorKind::BadRequest
        ));
        assert_eq!(responses[2], Response::Jobs(vec![]));
    }

    #[test]
    fn frame_level_poison_closes_after_one_typed_answer() {
        let (_client, server) = pair();
        let mut conn = Connection::new(server, true).unwrap();
        // A zero length prefix can never resynchronize.
        conn.rbuf.extend_from_slice(&0u32.to_be_bytes());
        conn.parse_frames(16, |_| unreachable!("no request decodes"));
        assert!(conn.close_after_flush);
        conn.flush();
        assert!(conn.should_close());
    }

    #[test]
    fn the_per_turn_budget_leaves_a_backlog_that_stops_reading() {
        let (_client, server) = pair();
        let mut conn = Connection::new(server, true).unwrap();
        for _ in 0..5 {
            push_request(&mut conn, &Request::ListJobs);
        }
        let answer = |_| Response::Jobs(vec![]);
        assert_eq!(conn.parse_frames(2, answer), 2);
        // Three frames wait: the reactor must revisit, and reading pauses
        // until they are handled.
        assert!(conn.has_backlog());
        assert_eq!(conn.desired_interest() & crate::poll::READABLE, 0);
        assert_eq!(conn.parse_frames(2, answer), 2);
        assert_eq!(conn.parse_frames(2, answer), 1);
        assert!(!conn.has_backlog());
        assert_ne!(conn.desired_interest() & crate::poll::READABLE, 0);
        assert_eq!(conn.parse_frames(2, answer), 0);
    }

    #[test]
    fn a_full_outbox_stops_parsing() {
        let (_client, server) = pair();
        let mut conn = Connection::new(server, true).unwrap();
        push_request(&mut conn, &Request::ListJobs);
        conn.wbuf = vec![0u8; HIGH_WATER];
        assert!(!conn.has_backlog(), "a full outbox holds the frame back");
        assert_eq!(conn.parse_frames(16, |_| Response::Jobs(vec![])), 0);
        conn.wpos = conn.wbuf.len() - LOW_WATER;
        assert!(conn.has_backlog());
        assert_eq!(conn.parse_frames(16, |_| Response::Jobs(vec![])), 1);
    }

    #[test]
    fn watermark_hysteresis_pauses_and_resumes_reading() {
        let (_client, server) = pair();
        let mut conn = Connection::new(server, true).unwrap();
        // Force an over-high-water outbox without touching the socket.
        conn.wbuf = vec![0u8; HIGH_WATER + 1];
        conn.wpos = 0;
        assert_eq!(conn.desired_interest() & crate::poll::READABLE, 0);
        // Draining to just under high water is not enough — hysteresis.
        conn.wpos = 2;
        assert_eq!(conn.desired_interest() & crate::poll::READABLE, 0);
        // Below low water, reading resumes.
        conn.wpos = conn.wbuf.len() - LOW_WATER;
        assert_ne!(conn.desired_interest() & crate::poll::READABLE, 0);
    }

    #[test]
    fn reject_connections_close_once_their_frame_drains() {
        let (mut client, server) = pair();
        let refusal = Response::Error(ErrorFrame {
            kind: ErrorKind::Saturated,
            message: "cap".to_string(),
            retry_after_secs: Some(0.5),
        });
        let mut conn = Connection::reject(server, refusal.clone()).unwrap();
        assert!(!conn.counted);
        assert!(!conn.should_close(), "the refusal still has to flush");
        conn.flush();
        assert!(conn.should_close());
        drop(conn);
        assert_eq!(read_responses(&mut client, 1), vec![refusal]);
    }
}
