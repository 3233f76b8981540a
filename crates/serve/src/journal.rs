//! The write-ahead job journal: durable fleet state across process death.
//!
//! A durable fleet (see [`crate::fleet::DurabilityConfig`]) appends one
//! [`JournalRecord`] to an on-disk log for every state transition the run
//! loop performs — admit, place, store publication, checkpoint, evict,
//! retry, complete. Training graphs are not transitions: each distinct
//! graph body is written once per log file, as a `graph` record that the
//! `admit` records of every job training it name by id. Together with the
//! periodically flushed [`crate::ProfileStore`] snapshot, the journal makes
//! the whole process crash-safe: `kill -9` at any instant loses nothing that
//! was admitted and no curve that was measured, because every store
//! publication is journaled as a delta *after* the snapshot it follows (the
//! journal is a true WAL over the store, not just over job metadata).
//!
//! ## Record framing
//!
//! ```text
//! +-------------------+------------------------+--------------------+
//! | length: u32, big- | checksum: u64, big-end | UTF-8 JSON payload |
//! | endian (payload)  | FNV-1a 64 of payload   | (one tagged object)|
//! +-------------------+------------------------+--------------------+
//! ```
//!
//! The payload is a single JSON object tagged by a `"type"` member, the
//! payload-enum shape the vendored serde derive writes for the chaos and
//! RPC layers too. The length is capped at [`MAX_RECORD_LEN`] so a corrupt
//! prefix cannot force an unbounded allocation, and the checksum turns torn
//! or bit-flipped suffixes into typed [`RecordError`]s instead of silently
//! wrong records.
//!
//! ## Consistency cut
//!
//! [`Journal::rotate`] writes a brand-new log — a header plus a compacted
//! prologue of the surviving state — to a temp file, fsyncs it, and renames
//! it over the old log. The fleet performs the store-snapshot flush and the
//! rotation back to back at the same simulated instant, so
//! `store.json + journal.log` is always a consistent cut: the snapshot
//! covers every store delta the rotation dropped. Appends between cuts are
//! `write_all` + flush — enough to survive `kill -9` (the bytes are in the
//! OS page cache, owned by the kernel, not the dead process); full fsync
//! durability against power loss is paid only at rotation points.
//!
//! ## Torn tails
//!
//! The prologue of `journal.log` is always intact (it arrives via the
//! atomic rename), so only the appended suffix can tear. [`replay`] decodes
//! records until the first framing or checksum failure and reports the
//! undecodable tail's byte count; recovery applies the valid prefix and
//! discards the tail — exactly the write-ahead-log contract.
//!
//! ## Graph records
//!
//! A `graph` record's id is local to its log file: ids count up from 0 in
//! first-write order, and an `admit` always names a `graph` record that
//! comes earlier in the same file. A rotation starts the count again and
//! writes each live job's graph once, before the first `admit` naming it,
//! so a cut prologue is as large as the distinct graphs it holds, not the
//! jobs. A torn tail can drop an `admit` after its `graph`, never the
//! reverse, because records are appended in order.

use nnrt_graph::{DataflowGraph, OpKey};
use nnrt_manycore::MachineSignature;
use nnrt_sched::KeyProfile;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Journal format tag; logs from other tools are rejected.
pub const JOURNAL_FORMAT: &str = "nnrt-job-journal";
/// Journal schema version; bumped on incompatible record-layout changes.
pub const JOURNAL_VERSION: u64 = 2;
/// File name of the record log inside a durable directory.
pub const JOURNAL_FILE: &str = "journal.log";
/// File name of the profile-store snapshot inside a durable directory.
pub const SNAPSHOT_FILE: &str = "store.json";
/// Upper bound on one record's JSON payload, bytes. Records claiming more
/// are rejected before any allocation.
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of framing before each record's payload (`u32` length + `u64`
/// FNV-1a checksum).
pub const RECORD_HEADER_LEN: usize = 12;

/// FNV-1a 64-bit over `bytes` — the per-record checksum (the same hash
/// family [`MachineSignature`] uses for machine fingerprints).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A typed failure while decoding one journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The buffer ends before the record does (a torn tail).
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes the record claims to need (framing + payload).
        need: usize,
    },
    /// The length prefix is zero or exceeds [`MAX_RECORD_LEN`].
    BadLength(u32),
    /// The payload does not hash to the stored checksum (bit rot or a torn
    /// overwrite).
    Checksum {
        /// Checksum stored in the frame.
        expected: u64,
        /// Checksum of the payload actually present.
        found: u64,
    },
    /// The payload is not UTF-8 JSON of a known record shape.
    Decode(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated { have, need } => {
                write!(f, "truncated record: {have} bytes present, {need} needed")
            }
            RecordError::BadLength(n) => {
                write!(f, "record length {n} outside 1..={MAX_RECORD_LEN}")
            }
            RecordError::Checksum { expected, found } => write!(
                f,
                "record checksum mismatch: stored {expected:#018x}, computed {found:#018x}"
            ),
            RecordError::Decode(msg) => write!(f, "undecodable record: {msg}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// One durable fleet state transition, or a training graph those
/// transitions name.
///
/// `Admit` carries the job spec and the id of its `Graph` record, so a
/// never-placed job can be re-enqueued from the journal alone;
/// `StorePublish` carries the curves a placement fitted and the keys it
/// read warm, making the journal a write-ahead log over the
/// [`crate::ProfileStore`] — a crash between snapshot flushes loses no
/// measured key.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum JournalRecord {
    /// First record of every log: format tag + schema version.
    Header {
        /// Always [`JOURNAL_FORMAT`] for logs this build writes.
        format: String,
        /// Always [`JOURNAL_VERSION`] for logs this build writes.
        version: u64,
    },
    /// A training graph (one step's dataflow), written once per log file
    /// for each distinct graph body the file's `admit` records name.
    Graph {
        /// Id of this record within its log file (0, 1, … in write order).
        id: u64,
        /// The graph.
        graph: DataflowGraph,
    },
    /// A job entered the admission queue.
    Admit {
        /// Fleet-unique job id.
        id: u64,
        /// Job name.
        name: String,
        /// Model family.
        model: String,
        /// Training steps requested.
        steps: u32,
        /// Admission priority.
        priority: u8,
        /// Deadline weight.
        weight: f64,
        /// Id of the `graph` record, earlier in the same log file, holding
        /// the job's training graph.
        graph: u64,
    },
    /// A queued job was placed onto a node.
    Place {
        /// Job id.
        id: u64,
        /// Node index the job landed on.
        node: u32,
    },
    /// Curves were inserted into the shared store with no key re-stamped:
    /// a `store_insert` record without a `touched` member, replayed with
    /// [`crate::ProfileStore::insert_many`]. The fleet writes it for a
    /// placement that read no key warm; logs that predate `StorePublish`
    /// hold every placement's whole fitted model this way.
    StoreInsert {
        /// Signature of the machine the curves were measured on.
        machine: MachineSignature,
        /// The inserted curve pairs.
        profiles: Vec<KeyProfile>,
    },
    /// A placement published into the shared store (a WAL delta; dropped
    /// at rotation because the snapshot covers it): the curves it fitted,
    /// plus the keys it read warm, whose stored curves it reused unchanged.
    /// Written as a `store_insert` record with a `touched` member, which
    /// holds keys only, and replayed with [`crate::ProfileStore::publish`]:
    /// the touched keys still present are stamped and the curves inserted
    /// in one clock tick.
    #[serde(rename = "store_insert")]
    StorePublish {
        /// Signature of the machine the curves were measured on.
        machine: MachineSignature,
        /// Keys served warm from the store, in key order.
        touched: Vec<OpKey>,
        /// The freshly fitted curve pairs, in key order.
        profiles: Vec<KeyProfile>,
    },
    /// A resident job wrote a recovery checkpoint.
    Checkpoint {
        /// Job id.
        id: u64,
        /// Training steps completed at the checkpoint.
        steps_done: u32,
        /// Simulated time the checkpoint was written.
        at: f64,
        /// Profile keys the job had fitted curves for.
        fitted_keys: Vec<OpKey>,
    },
    /// A node crash evicted a resident job into the retry queue.
    Evict {
        /// Job id.
        id: u64,
        /// Simulated time of the eviction.
        at: f64,
    },
    /// An evicted job was re-admitted onto a node.
    Retry {
        /// Job id.
        id: u64,
        /// Node index the job landed on.
        node: u32,
    },
    /// A job finished every training step.
    Complete {
        /// Job id.
        id: u64,
        /// Job name.
        name: String,
        /// Model family.
        model: String,
        /// Training steps executed.
        steps: u32,
        /// Node the job finished on.
        node: u32,
        /// Simulated completion time.
        at: f64,
    },
}

impl JournalRecord {
    /// The header record this build writes at the top of every log.
    pub fn header() -> Self {
        JournalRecord::Header {
            format: JOURNAL_FORMAT.to_string(),
            version: JOURNAL_VERSION,
        }
    }

    /// The record of one placement's publication into the store: the
    /// plain `StoreInsert` form when it touched no warm key, so that
    /// record carries no empty `touched` member.
    pub fn publication(
        machine: MachineSignature,
        touched: Vec<OpKey>,
        profiles: Vec<KeyProfile>,
    ) -> Self {
        if touched.is_empty() {
            JournalRecord::StoreInsert { machine, profiles }
        } else {
            JournalRecord::StorePublish {
                machine,
                touched,
                profiles,
            }
        }
    }

    /// Stable lowercase tag (the JSON `"type"` member and the CLI
    /// inspector's tally label).
    pub fn tag(&self) -> &'static str {
        match self {
            JournalRecord::Header { .. } => "header",
            JournalRecord::Graph { .. } => "graph",
            JournalRecord::Admit { .. } => "admit",
            JournalRecord::Place { .. } => "place",
            JournalRecord::StoreInsert { .. } | JournalRecord::StorePublish { .. } => {
                "store_insert"
            }
            JournalRecord::Checkpoint { .. } => "checkpoint",
            JournalRecord::Evict { .. } => "evict",
            JournalRecord::Retry { .. } => "retry",
            JournalRecord::Complete { .. } => "complete",
        }
    }
}

// Hand-written, unlike `Serialize`: one `store_insert` tag decodes to
// `StoreInsert` or `StorePublish`, depending on whether `touched` is present.
impl Deserialize for JournalRecord {
    fn from_json_value(v: &Value) -> Result<Self, SerdeError> {
        let field = |name| v.member("JournalRecord", name);
        let tag = field("type")?;
        match tag
            .as_str()
            .ok_or_else(|| SerdeError::expected("string `type` tag", tag))?
        {
            "header" => Ok(JournalRecord::Header {
                format: String::from_json_value(field("format")?)?,
                version: u64::from_json_value(field("version")?)?,
            }),
            "graph" => Ok(JournalRecord::Graph {
                id: u64::from_json_value(field("id")?)?,
                graph: DataflowGraph::from_json_value(field("graph")?)?,
            }),
            "admit" => Ok(JournalRecord::Admit {
                id: u64::from_json_value(field("id")?)?,
                name: String::from_json_value(field("name")?)?,
                model: String::from_json_value(field("model")?)?,
                steps: u32::from_json_value(field("steps")?)?,
                priority: u8::from_json_value(field("priority")?)?,
                weight: f64::from_json_value(field("weight")?)?,
                graph: u64::from_json_value(field("graph")?)?,
            }),
            "place" => Ok(JournalRecord::Place {
                id: u64::from_json_value(field("id")?)?,
                node: u32::from_json_value(field("node")?)?,
            }),
            "store_insert" => {
                let machine = MachineSignature::from_json_value(field("machine")?)?;
                let profiles = Vec::from_json_value(field("profiles")?)?;
                Ok(match v.get("touched") {
                    None => JournalRecord::StoreInsert { machine, profiles },
                    Some(touched) => JournalRecord::StorePublish {
                        machine,
                        touched: Vec::from_json_value(touched)?,
                        profiles,
                    },
                })
            }
            "checkpoint" => Ok(JournalRecord::Checkpoint {
                id: u64::from_json_value(field("id")?)?,
                steps_done: u32::from_json_value(field("steps_done")?)?,
                at: f64::from_json_value(field("at")?)?,
                fitted_keys: Vec::from_json_value(field("fitted_keys")?)?,
            }),
            "evict" => Ok(JournalRecord::Evict {
                id: u64::from_json_value(field("id")?)?,
                at: f64::from_json_value(field("at")?)?,
            }),
            "retry" => Ok(JournalRecord::Retry {
                id: u64::from_json_value(field("id")?)?,
                node: u32::from_json_value(field("node")?)?,
            }),
            "complete" => Ok(JournalRecord::Complete {
                id: u64::from_json_value(field("id")?)?,
                name: String::from_json_value(field("name")?)?,
                model: String::from_json_value(field("model")?)?,
                steps: u32::from_json_value(field("steps")?)?,
                node: u32::from_json_value(field("node")?)?,
                at: f64::from_json_value(field("at")?)?,
            }),
            other => Err(SerdeError::msg(format!("unknown record type `{other}`"))),
        }
    }
}

/// Encodes one record to its framed wire form (length + checksum + JSON).
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut payload = String::new();
    rec.write_json(&mut payload);
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&fnv1a64(bytes).to_be_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Decodes one record from the front of `buf`, returning it and the number
/// of bytes it occupied. Never panics: every malformed prefix is a typed
/// [`RecordError`].
pub fn decode_record(buf: &[u8]) -> Result<(JournalRecord, usize), RecordError> {
    if buf.len() < RECORD_HEADER_LEN {
        return Err(RecordError::Truncated {
            have: buf.len(),
            need: RECORD_HEADER_LEN,
        });
    }
    let len = u32::from_be_bytes(buf[0..4].try_into().expect("4 bytes"));
    if len == 0 || len > MAX_RECORD_LEN {
        return Err(RecordError::BadLength(len));
    }
    let total = RECORD_HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(RecordError::Truncated {
            have: buf.len(),
            need: total,
        });
    }
    let expected = u64::from_be_bytes(buf[4..12].try_into().expect("8 bytes"));
    let payload = &buf[RECORD_HEADER_LEN..total];
    let found = fnv1a64(payload);
    if found != expected {
        return Err(RecordError::Checksum { expected, found });
    }
    let text = std::str::from_utf8(payload)
        .map_err(|e| RecordError::Decode(format!("payload is not UTF-8: {e}")))?;
    let rec: JournalRecord =
        serde_json::from_str(text).map_err(|e| RecordError::Decode(e.to_string()))?;
    Ok((rec, total))
}

/// The outcome of replaying a journal's bytes: every record up to the first
/// undecodable one, plus what (if anything) was torn off the tail.
#[derive(Debug)]
pub struct Replay {
    /// Records decoded, in log order (the header record included).
    pub records: Vec<JournalRecord>,
    /// The error that stopped the replay, if the log did not parse to its
    /// end — a torn tail from a mid-append crash.
    pub torn: Option<RecordError>,
    /// Bytes after the last good record that were discarded.
    pub discarded_bytes: usize,
}

/// Decodes records from `bytes` until the end or the first failure. A torn
/// tail is normal after a crash (only the suffix past the last complete
/// `write` can tear — the prologue arrives via atomic rename) and is
/// reported, not raised.
pub fn replay(bytes: &[u8]) -> Replay {
    let mut records = Vec::new();
    let mut cursor = 0usize;
    while cursor < bytes.len() {
        match decode_record(&bytes[cursor..]) {
            Ok((rec, used)) => {
                records.push(rec);
                cursor += used;
            }
            Err(err) => {
                return Replay {
                    records,
                    torn: Some(err),
                    discarded_bytes: bytes.len() - cursor,
                };
            }
        }
    }
    Replay {
        records,
        torn: None,
        discarded_bytes: 0,
    }
}

/// Writes `contents` to `path` atomically: temp file in the same directory,
/// `write_all`, fsync, rename over the target, then a best-effort fsync of
/// the directory. A crash at any instant leaves either the old file or the
/// new one — never a torn mix.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// An open, appendable journal log inside a durable directory.
pub struct Journal {
    dir: PathBuf,
    file: File,
}

impl Journal {
    /// Creates (or truncates, via atomic replacement) `dir/journal.log`
    /// containing just the header record, creating `dir` if needed, and
    /// opens it for appending.
    pub fn create(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Self::rotate_into(dir, &[])
    }

    /// Path of the log file this journal appends to.
    pub fn path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// Appends one record (`write_all` + flush; see the module docs for why
    /// that survives `kill -9` without an fsync per record). Returns the
    /// encoded record's size in bytes — the fleet's journal byte accounting.
    pub fn append(&mut self, rec: &JournalRecord) -> std::io::Result<usize> {
        let encoded = encode_record(rec);
        self.file.write_all(&encoded)?;
        self.file.flush()?;
        Ok(encoded.len())
    }

    /// Replaces the log with a fresh one — header plus `prologue` —
    /// atomically (temp + fsync + rename) and reopens it for appending.
    /// The caller flushes the store snapshot at the same instant, so the
    /// dropped suffix is fully covered by the snapshot + prologue pair.
    pub fn rotate(&mut self, prologue: &[JournalRecord]) -> std::io::Result<()> {
        *self = Self::rotate_into(&self.dir, prologue)?;
        Ok(())
    }

    fn rotate_into(dir: &Path, prologue: &[JournalRecord]) -> std::io::Result<Self> {
        let mut buf = encode_record(&JournalRecord::header());
        for rec in prologue {
            buf.extend_from_slice(&encode_record(rec));
        }
        let path = dir.join(JOURNAL_FILE);
        write_atomic(&path, &buf)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            file,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_graph::{OpKind, Shape};

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Graph {
                id: 0,
                graph: nnrt_models::dcgan(4).graph,
            },
            JournalRecord::Admit {
                id: 0,
                name: "dcgan-0".to_string(),
                model: "dcgan".to_string(),
                steps: 2,
                priority: 1,
                weight: 1.5,
                graph: 0,
            },
            JournalRecord::Place { id: 0, node: 1 },
            JournalRecord::StoreInsert {
                machine: MachineSignature(42),
                profiles: vec![KeyProfile {
                    kind: OpKind::MatMul,
                    shape: Shape(vec![8, 8]),
                    compact: nnrt_sched::Curve {
                        samples: vec![(1, 2.0), (4, 0.5)],
                    },
                    scatter: nnrt_sched::Curve {
                        samples: vec![(1, 2.5)],
                    },
                }],
            },
            JournalRecord::StorePublish {
                machine: MachineSignature(42),
                touched: vec![(OpKind::Relu, Shape(vec![8, 8]))],
                profiles: Vec::new(),
            },
            JournalRecord::StorePublish {
                machine: MachineSignature(42),
                touched: Vec::new(),
                profiles: Vec::new(),
            },
            JournalRecord::Checkpoint {
                id: 0,
                steps_done: 1,
                at: 3.25,
                fitted_keys: vec![(OpKind::MatMul, Shape(vec![8, 8]))],
            },
            JournalRecord::Evict { id: 0, at: 4.0 },
            JournalRecord::Retry { id: 0, node: 0 },
            JournalRecord::Complete {
                id: 0,
                name: "dcgan-0".to_string(),
                model: "dcgan".to_string(),
                steps: 2,
                node: 0,
                at: 9.5,
            },
        ]
    }

    #[test]
    fn every_record_kind_round_trips() {
        for rec in sample_records() {
            let bytes = encode_record(&rec);
            let (back, used) = decode_record(&bytes).expect("record decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn a_publication_without_touched_keys_is_a_plain_store_insert() {
        let profiles = sample_records()
            .into_iter()
            .find_map(|r| match r {
                JournalRecord::StoreInsert { profiles, .. } => Some(profiles),
                _ => None,
            })
            .expect("the samples hold a store_insert");
        let machine = MachineSignature(42);
        let plain = JournalRecord::StoreInsert {
            machine,
            profiles: profiles.clone(),
        };
        let record = JournalRecord::publication(machine, Vec::new(), profiles.clone());
        assert_eq!(encode_record(&record), encode_record(&plain));
        // A `store_insert` without a `touched` member (every record of a
        // log that predates it) decodes as the plain form.
        let old = r#"{"type":"store_insert","machine":42,"profiles":[]}"#;
        assert_eq!(
            JournalRecord::from_json_value(&serde_json::from_str(old).unwrap()),
            Ok(JournalRecord::StoreInsert {
                machine,
                profiles: Vec::new()
            })
        );
        let touched = vec![(OpKind::Relu, Shape(vec![8]))];
        let record = JournalRecord::publication(machine, touched.clone(), profiles.clone());
        assert_eq!(record.tag(), "store_insert");
        assert_eq!(
            record,
            JournalRecord::StorePublish {
                machine,
                touched,
                profiles
            }
        );
    }

    #[test]
    fn replay_recovers_all_records_and_reports_torn_tails() {
        let records = sample_records();
        let mut bytes = encode_record(&JournalRecord::header());
        for rec in &records {
            bytes.extend_from_slice(&encode_record(rec));
        }
        let full = replay(&bytes);
        assert!(full.torn.is_none());
        assert_eq!(full.discarded_bytes, 0);
        assert_eq!(full.records.len(), records.len() + 1);
        assert_eq!(full.records[0], JournalRecord::header());

        // Chop mid-record: the prefix replays, the tail is reported torn.
        let cut = bytes.len() - 5;
        let torn = replay(&bytes[..cut]);
        assert_eq!(torn.records.len(), records.len(), "last record is lost");
        assert!(matches!(torn.torn, Some(RecordError::Truncated { .. })));
        assert!(torn.discarded_bytes > 0);
    }

    #[test]
    fn bit_flips_are_checksum_errors_not_wrong_records() {
        let rec = JournalRecord::Place { id: 7, node: 3 };
        let clean = encode_record(&rec);
        // Flip one payload bit: the checksum must catch it.
        let mut flipped = clean.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            decode_record(&flipped),
            Err(RecordError::Checksum { .. })
        ));
        // Zero length and absurd length are typed, too.
        let mut zero = clean.clone();
        zero[0..4].copy_from_slice(&0u32.to_be_bytes());
        assert!(matches!(
            decode_record(&zero),
            Err(RecordError::BadLength(0))
        ));
        let mut huge = clean;
        huge[0..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_be_bytes());
        assert!(matches!(
            decode_record(&huge),
            Err(RecordError::BadLength(_))
        ));
    }

    #[test]
    fn journal_appends_and_rotation_keep_the_log_replayable() {
        let dir = std::env::temp_dir().join(format!(
            "nnrt-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = Journal::create(&dir).expect("journal creates");
        journal
            .append(&JournalRecord::Place { id: 1, node: 0 })
            .unwrap();
        journal
            .append(&JournalRecord::Evict { id: 1, at: 2.0 })
            .unwrap();
        let bytes = std::fs::read(journal.path()).unwrap();
        let before = replay(&bytes);
        assert!(before.torn.is_none());
        assert_eq!(before.records.len(), 3);
        assert_eq!(before.records[0], JournalRecord::header());

        // Rotation drops the old suffix and installs the prologue.
        journal
            .rotate(&[JournalRecord::Retry { id: 1, node: 1 }])
            .unwrap();
        journal
            .append(&JournalRecord::Complete {
                id: 1,
                name: "j".to_string(),
                model: "dcgan".to_string(),
                steps: 2,
                node: 1,
                at: 8.0,
            })
            .unwrap();
        let bytes = std::fs::read(journal.path()).unwrap();
        let after = replay(&bytes);
        assert!(after.torn.is_none());
        assert_eq!(after.records.len(), 3);
        assert_eq!(after.records[1], JournalRecord::Retry { id: 1, node: 1 });
        assert!(matches!(after.records[2], JournalRecord::Complete { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_never_truncates() {
        let dir = std::env::temp_dir().join(format!(
            "nnrt-atomic-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        write_atomic(&path, b"first contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first contents");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(
            !dir.join("store.tmp").exists(),
            "temp file must not survive a successful write"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
