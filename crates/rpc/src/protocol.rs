//! Wire format: versioned, length-prefixed JSON frames.
//!
//! Every message on the socket is one frame:
//!
//! ```text
//! +----------------------+-----------+---------------------------+
//! | length: u32, big-end | version   | UTF-8 JSON payload        |
//! | (version + payload)  | byte (=1) | (one tagged object)       |
//! +----------------------+-----------+---------------------------+
//! ```
//!
//! The length covers the version byte plus the JSON payload and is capped at
//! [`MAX_FRAME_LEN`], so a garbage prefix cannot make a peer allocate
//! unboundedly. The payload is a single JSON object tagged by a `"type"`
//! member, the payload-enum shape the vendored serde derive writes (the
//! chaos module's fault events and the journal's records use it too).
//! Unknown tags, missing fields, and version skew all decode to
//! typed errors, never panics; a server answers them with an
//! [`ErrorFrame`] rather than dropping the connection.
//!
//! The error taxonomy ([`ErrorKind`]) distinguishes backpressure
//! (`Saturated`, which carries the fleet's concrete `retry_after_secs`
//! hint over the wire) from caller mistakes (`EmptyJob`, `UnknownModel`,
//! `UnknownJob`, `BadRequest`) and lifecycle states (`VersionMismatch`,
//! `ShuttingDown`), so clients can decide between retrying, fixing the
//! request, and giving up.

use nnrt_obs::Event;
use nnrt_serve::{JobStatus, StoreStats};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{Read, Write};

/// Protocol version spoken by this build; the first payload byte of every
/// frame. Bumped on incompatible changes to the frame or message layout.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on `version byte + JSON payload` length, bytes. Frames
/// claiming more are rejected before any allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// A protocol-level failure while reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (includes clean EOF between frames).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`] or is zero.
    BadLength(u32),
    /// The frame's version byte differs from [`PROTOCOL_VERSION`].
    Version(u8),
    /// The payload is not valid UTF-8 JSON of the expected shape.
    Decode(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadLength(n) => {
                write!(f, "frame length {n} outside 1..={MAX_FRAME_LEN}")
            }
            FrameError::Version(v) => {
                write!(
                    f,
                    "peer speaks protocol version {v}, not {PROTOCOL_VERSION}"
                )
            }
            FrameError::Decode(msg) => write!(f, "undecodable frame: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Serializes one frame (length prefix + version byte + `payload` JSON
/// text) into a single contiguous buffer — the wire bytes `write_frame`
/// emits and `read_frame`/`frame_from_buf` consume.
pub fn frame_bytes(payload: &str) -> Vec<u8> {
    let len = payload.len() as u32 + 1;
    let mut buf = Vec::with_capacity(4 + 1 + payload.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.push(PROTOCOL_VERSION);
    buf.extend_from_slice(payload.as_bytes());
    buf
}

/// Writes one frame (version byte + `payload` JSON text) to `w` as a single
/// write — header, version, and payload go out in one syscall instead of
/// three, so a frame never straddles a kernel send-buffer boundary
/// needlessly and small requests stay one packet under `TCP_NODELAY`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    w.write_all(&frame_bytes(payload))?;
    w.flush()
}

/// Tries to parse one complete frame from the front of an accumulation
/// buffer (the server reactor's per-connection read buffer).
///
/// Returns `Ok(Some((payload, consumed)))` when a full frame is present —
/// the caller drains `consumed` bytes; `Ok(None)` when the buffer holds
/// only a frame prefix (read more and retry); and a typed [`FrameError`]
/// when the prefix can never become a valid frame (bad length, version
/// skew, non-UTF-8 payload), in which case the connection is poisoned.
pub fn frame_from_buf(buf: &[u8]) -> Result<Option<(String, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(FrameError::BadLength(len));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let version = buf[4];
    if version != PROTOCOL_VERSION {
        return Err(FrameError::Version(version));
    }
    let payload = std::str::from_utf8(&buf[5..total])
        .map_err(|e| FrameError::Decode(e.to_string()))?
        .to_string();
    Ok(Some((payload, total)))
}

/// Reads one frame from `r`, returning its JSON payload text.
pub fn read_frame(r: &mut impl Read) -> Result<String, FrameError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(FrameError::BadLength(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let version = payload[0];
    if version != PROTOCOL_VERSION {
        return Err(FrameError::Version(version));
    }
    String::from_utf8(payload.split_off(1)).map_err(|e| FrameError::Decode(e.to_string()))
}

/// What a tenant asks over the wire: submit a training job (the server
/// resolves `model` + `batch` to a graph through the shared
/// [`nnrt_models::by_name`] registry), query one job or all jobs, read the
/// profile store's snapshot and counters, or shut the service down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a training job.
    #[serde(member = "spec")]
    Submit(SubmitSpec),
    /// Query one job by id.
    Status {
        /// Id returned by an earlier `Submit`.
        job_id: u64,
    },
    /// Query every job the fleet has admitted.
    ListJobs,
    /// Read the profile store: entry count, hit/miss/eviction counters,
    /// and the versioned snapshot document.
    Snapshot,
    /// Scrape the fleet's metrics: the Prometheus-style text exposition
    /// (both clock domains), gauges refreshed at scrape time.
    Metrics,
    /// Read the fleet's retained structured events (both clock domains,
    /// sim first, each in sequence order).
    Events,
    /// Drain the fleet, flush the final report (and the profile-store
    /// snapshot, if the server persists one), and stop serving.
    Shutdown,
}

impl Request {
    /// Stable lowercase name of the request kind — the `kind` label the
    /// server's per-request metrics use, equal to the JSON `"type"` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Submit(_) => "submit",
            Request::Status { .. } => "status",
            Request::ListJobs => "list_jobs",
            Request::Snapshot => "snapshot",
            Request::Metrics => "metrics",
            Request::Events => "events",
            Request::Shutdown => "shutdown",
        }
    }
}

/// The submit request's payload: everything a [`nnrt_serve::JobSpec`] needs
/// except the graph, which the server builds from `(model, batch)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitSpec {
    /// Job name; an empty string lets the server pick `{model}-{id}`.
    pub name: String,
    /// Model family, resolved via [`nnrt_models::by_name`].
    pub model: String,
    /// Batch size; `0` uses the model's paper-default batch. The server
    /// refuses a batch above 4096 with [`ErrorKind::BadRequest`].
    pub batch: u64,
    /// Training steps to run.
    pub steps: u32,
    /// Admission priority (higher first).
    pub priority: u8,
    /// Deadline weight (higher first within a priority class).
    pub weight: f64,
}

impl SubmitSpec {
    /// A spec for `model` with sensible defaults: default batch, 3 steps,
    /// priority 0, weight 1.0, server-assigned name.
    pub fn new(model: &str) -> Self {
        SubmitSpec {
            name: String::new(),
            model: model.to_string(),
            batch: 0,
            steps: 3,
            priority: 0,
            weight: 1.0,
        }
    }
}

/// Why the server refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// Backpressure: the admission queue (or the server's connection cap)
    /// is full. The frame carries a positive `retry_after_secs` hint.
    Saturated,
    /// The job has no work (zero steps, or a model with an empty graph).
    EmptyJob,
    /// The submit's `model` names nothing in the registry.
    UnknownModel,
    /// The status query's `job_id` was never admitted by this fleet.
    UnknownJob,
    /// The request frame did not decode to a known request.
    BadRequest,
    /// The client's frame version differs from the server's.
    VersionMismatch,
    /// The server is draining after a `Shutdown` and accepts no new work.
    ShuttingDown,
}

/// A typed refusal, sent instead of the success response. `Saturated`
/// frames carry the fleet's `retry_after_secs` hint (simulated seconds —
/// an upper bound a real-time client should cap its backoff at, not an
/// exact wall-clock wait).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorFrame {
    /// The refusal's category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// For `Saturated`: how long to wait before retrying, seconds.
    pub retry_after_secs: Option<f64>,
}

/// The profile store's state, answering a `Snapshot` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotInfo {
    /// Curve pairs currently resident.
    pub entries: u64,
    /// Keys served from the store across all lookups.
    pub hits: u64,
    /// Keys requested but absent across all lookups.
    pub misses: u64,
    /// Entries evicted by the LRU cap.
    pub evictions: u64,
    /// Serialized bytes those evictions released.
    pub evicted_bytes: u64,
    /// `hits / (hits + misses)`, or `0.0` before any lookup.
    pub hit_rate: f64,
    /// The versioned snapshot document ([`nnrt_serve::ProfileStore`] JSON),
    /// restorable into another store.
    pub snapshot: String,
}

impl SnapshotInfo {
    /// Builds the response payload from a store's entry count, counters,
    /// and snapshot document.
    pub fn new(entries: usize, stats: StoreStats, snapshot: String) -> Self {
        SnapshotInfo {
            entries: entries as u64,
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
            evicted_bytes: stats.evicted_bytes,
            hit_rate: stats.hit_rate(),
            snapshot,
        }
    }
}

/// What the server answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The submit was admitted under this id.
    Submitted {
        /// Fleet-unique job id; the handle for later `Status` queries.
        job_id: u64,
    },
    /// One job's point-in-time status.
    Job(JobStatus),
    /// Every admitted job's status, sorted by id.
    Jobs(Vec<JobStatus>),
    /// The profile store's counters and snapshot.
    #[serde(member = "store")]
    Snapshot(SnapshotInfo),
    /// The metrics exposition text.
    Metrics {
        /// Prometheus-style text exposition (see `nnrt_obs::Registry`).
        text: String,
    },
    /// The retained structured events.
    Events(Vec<Event>),
    /// The server drained the fleet and is stopping; `report` is the final
    /// [`nnrt_serve::FleetReport`] as canonical JSON.
    Bye {
        /// `FleetReport::to_json()` of the drained fleet.
        report: String,
    },
    /// The request was refused.
    Error(ErrorFrame),
}

/// Encodes a message to its JSON payload text.
pub fn encode<T: Serialize>(msg: &T) -> String {
    let mut payload = String::new();
    msg.write_json(&mut payload);
    payload
}

/// Decodes a JSON payload into a message.
pub fn decode<T: Deserialize>(payload: &str) -> Result<T, FrameError> {
    serde_json::from_str(payload).map_err(|e| FrameError::Decode(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_serve::{JobPhase, JobStatus};

    fn round_trip_request(req: Request) {
        let text = encode(&req);
        let back: Request = decode(&text).expect("request decodes");
        assert_eq!(req, back, "payload was: {text}");
    }

    fn round_trip_response(resp: Response) {
        let text = encode(&resp);
        let back: Response = decode(&text).expect("response decodes");
        assert_eq!(resp, back, "payload was: {text}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Submit(SubmitSpec {
            name: "dcgan-a".to_string(),
            model: "dcgan".to_string(),
            batch: 4,
            steps: 3,
            priority: 2,
            weight: 1.5,
        }));
        round_trip_request(Request::Status { job_id: 7 });
        round_trip_request(Request::ListJobs);
        round_trip_request(Request::Snapshot);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Events);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Submitted { job_id: 3 });
        round_trip_response(Response::Job(JobStatus {
            id: 3,
            name: "dcgan-3".to_string(),
            model: "dcgan".to_string(),
            phase: JobPhase::Running,
            steps_done: 1,
            steps: 3,
            node: Some(0),
            durability_disabled: false,
        }));
        round_trip_response(Response::Jobs(vec![]));
        round_trip_response(Response::Metrics {
            text: "# TYPE nnrt_queue_depth gauge\nnnrt_queue_depth{clock=\"sim\"} 2\n".to_string(),
        });
        round_trip_response(Response::Events(vec![nnrt_obs::Event {
            seq: 0,
            at: 1.5,
            clock: nnrt_obs::Clock::Sim,
            kind: nnrt_obs::EventKind::Place,
            job: Some(1),
            node: Some(0),
            detail: "dcgan-1".to_string(),
        }]));
        round_trip_response(Response::Snapshot(SnapshotInfo {
            entries: 12,
            hits: 30,
            misses: 6,
            evictions: 0,
            evicted_bytes: 0,
            hit_rate: 30.0 / 36.0,
            snapshot: "{}".to_string(),
        }));
        round_trip_response(Response::Bye {
            report: "{\"jobs\": []}".to_string(),
        });
        round_trip_response(Response::Error(ErrorFrame {
            kind: ErrorKind::Saturated,
            message: "queue full".to_string(),
            retry_after_secs: Some(2.25),
        }));
        round_trip_response(Response::Error(ErrorFrame {
            kind: ErrorKind::UnknownModel,
            message: "no such model".to_string(),
            retry_after_secs: None,
        }));
    }

    #[test]
    fn saturated_frames_carry_the_retry_hint_over_the_wire() {
        let text = encode(&Response::Error(ErrorFrame {
            kind: ErrorKind::Saturated,
            message: "admission queue saturated".to_string(),
            retry_after_secs: Some(4.125),
        }));
        let back: Response = decode(&text).unwrap();
        match back {
            Response::Error(frame) => {
                assert_eq!(frame.kind, ErrorKind::Saturated);
                assert_eq!(frame.retry_after_secs, Some(4.125));
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn golden_frame_bytes_layout_is_stable() {
        // The exact wire bytes for the payload `{}`: 4-byte big-endian
        // length (payload + version byte = 3), version 1, then the JSON.
        let golden = [0u8, 0, 0, 3, 1, b'{', b'}'];
        assert_eq!(frame_bytes("{}"), golden);

        // The single-buffer writer emits byte-identical frames.
        let mut written = Vec::new();
        write_frame(&mut written, "{}").unwrap();
        assert_eq!(written, golden);

        // And both readers agree on those bytes.
        assert_eq!(
            read_frame(&mut std::io::Cursor::new(golden.to_vec())).unwrap(),
            "{}"
        );
        assert_eq!(
            frame_from_buf(&golden).unwrap(),
            Some(("{}".to_string(), golden.len()))
        );
    }

    #[test]
    fn incremental_parser_handles_split_and_concatenated_frames() {
        let mut wire = frame_bytes("{\"type\": \"list_jobs\"}");
        wire.extend_from_slice(&frame_bytes("{\"type\": \"shutdown\"}"));

        // Every proper prefix of the first frame parses to "incomplete".
        let first_len = frame_bytes("{\"type\": \"list_jobs\"}").len();
        for cut in 0..first_len {
            assert_eq!(frame_from_buf(&wire[..cut]).unwrap(), None, "cut {cut}");
        }

        // A buffer holding both frames yields them front-to-back.
        let (payload, consumed) = frame_from_buf(&wire).unwrap().unwrap();
        assert_eq!(payload, "{\"type\": \"list_jobs\"}");
        let (payload, consumed2) = frame_from_buf(&wire[consumed..]).unwrap().unwrap();
        assert_eq!(payload, "{\"type\": \"shutdown\"}");
        assert_eq!(consumed + consumed2, wire.len());

        // Poison prefixes are typed errors, same taxonomy as read_frame.
        assert!(matches!(
            frame_from_buf(&0u32.to_be_bytes()),
            Err(FrameError::BadLength(0))
        ));
        assert!(matches!(
            frame_from_buf(&(MAX_FRAME_LEN + 1).to_be_bytes()),
            Err(FrameError::BadLength(_))
        ));
        let mut skewed = 2u32.to_be_bytes().to_vec();
        skewed.push(PROTOCOL_VERSION + 1);
        skewed.push(b'x');
        assert!(matches!(
            frame_from_buf(&skewed),
            Err(FrameError::Version(v)) if v == PROTOCOL_VERSION + 1
        ));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\": \"list_jobs\"}").unwrap();
        write_frame(&mut buf, "{\"type\": \"shutdown\"}").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            "{\"type\": \"list_jobs\"}"
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), "{\"type\": \"shutdown\"}");
        // A clean EOF between frames surfaces as an Io error.
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
    }

    #[test]
    fn oversized_zero_and_version_skewed_frames_are_typed_errors() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(huge)),
            Err(FrameError::BadLength(_))
        ));

        let zero = 0u32.to_be_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(zero)),
            Err(FrameError::BadLength(0))
        ));

        let mut skewed = Vec::new();
        skewed.extend_from_slice(&2u32.to_be_bytes());
        skewed.push(PROTOCOL_VERSION + 1);
        skewed.push(b'x');
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(skewed)),
            Err(FrameError::Version(v)) if v == PROTOCOL_VERSION + 1
        ));
    }

    #[test]
    fn garbage_payloads_decode_to_typed_errors() {
        assert!(matches!(
            decode::<Request>("{nonsense"),
            Err(FrameError::Decode(_))
        ));
        assert!(matches!(
            decode::<Request>("{\"type\": \"fly\"}"),
            Err(FrameError::Decode(_))
        ));
        assert!(matches!(
            decode::<Request>("{\"type\": \"status\"}"),
            Err(FrameError::Decode(_)),
        ));
        assert!(matches!(
            decode::<Response>("{\"type\": \"submitted\"}"),
            Err(FrameError::Decode(_)),
        ));
    }
}
