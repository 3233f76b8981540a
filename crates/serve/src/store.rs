//! The shared, persistent profile store.
//!
//! Hill-climb curves are expensive: every `(kind, shape)` key costs a
//! climb's worth of profiling training steps (§III-C of the paper). In a
//! multi-tenant service the same models arrive over and over, so the fleet
//! keeps one concurrent store of measured curves keyed by
//! `(kind, shape, machine signature)`. The second job of a model warm-starts
//! from the store and skips every already-profiled key.
//!
//! The store snapshots to versioned JSON and restores with merge semantics,
//! so a service restart (or a second fleet) inherits every curve measured so
//! far. Restoring a corrupted or version-mismatched snapshot yields a typed
//! [`StoreError`], never a panic.

use nnrt_graph::{OpKey, OpKind, Shape};
use nnrt_manycore::MachineSignature;
use nnrt_sched::KeyProfile;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Snapshot format tag; snapshots from other tools are rejected.
pub const SNAPSHOT_FORMAT: &str = "nnrt-profile-store";
/// Snapshot schema version; bumped on incompatible layout changes.
pub const SNAPSHOT_VERSION: u64 = 1;
/// Default entry capacity (curve pairs, across all machines).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Typed failure of a snapshot restore.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The snapshot is not parseable JSON, or decodes to the wrong shape.
    Corrupt(String),
    /// The `format` field is missing or names a different producer.
    BadHeader(String),
    /// The snapshot's schema version is not [`SNAPSHOT_VERSION`].
    VersionMismatch {
        /// Version found in the snapshot.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Corrupt(msg) => write!(f, "corrupt profile snapshot: {msg}"),
            StoreError::BadHeader(msg) => write!(f, "bad profile snapshot header: {msg}"),
            StoreError::VersionMismatch { found, expected } => write!(
                f,
                "profile snapshot version {found} is not supported (expected {expected})"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// One persisted curve pair: a [`KeyProfile`] plus the machine it was
/// measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SnapshotEntry {
    machine: MachineSignature,
    kind: OpKind,
    shape: Shape,
    compact: nnrt_sched::Curve,
    scatter: nnrt_sched::Curve,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Snapshot {
    format: String,
    version: u64,
    entries: Vec<SnapshotEntry>,
}

type StoreKey = (MachineSignature, OpKind, Shape);

struct Entry {
    profile: KeyProfile,
    last_used: u64,
    /// Serialized size of `profile`, charged against the owning machine's
    /// byte quota.
    bytes: u64,
}

/// Lifetime counters of one [`ProfileStore`]: how often lookups were served
/// from the store, how often they missed, and how much the eviction policy
/// (per-machine byte quota + LRU entry cap) has thrown away. The
/// eviction-tuning work on the roadmap needs exactly these numbers, so the
/// fleet surfaces them in its report and over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Keys served from the store across all lookups.
    pub hits: u64,
    /// Keys requested but absent across all lookups.
    pub misses: u64,
    /// Entries evicted by the byte quota or the LRU capacity cap.
    pub evictions: u64,
    /// Serialized bytes those evictions released.
    pub evicted_bytes: u64,
}

impl StoreStats {
    /// Fraction of looked-up keys served from the store (`0.0` when no
    /// lookup has happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One machine's share of the store, maintained incrementally on
/// insert/remove/touch.
#[derive(Default)]
struct MachineEntries {
    /// Serialized bytes held by the machine's entries.
    bytes: u64,
    /// The machine's keys in eviction order: least recently used first,
    /// ties broken by key order.
    lru: BTreeSet<(u64, StoreKey)>,
}

struct Inner {
    entries: HashMap<StoreKey, Entry>,
    /// Machines holding at least one entry, in signature order.
    machines: BTreeMap<MachineSignature, MachineEntries>,
    clock: u64,
    capacity: usize,
    /// Per-machine serialized-byte quota ([`u64::MAX`] = unbounded).
    byte_quota: u64,
    stats: StoreStats,
}

/// Concurrent, LRU-capped map from `(machine, kind, shape)` to measured
/// hill-climb curves. Shared across jobs via `Arc<ProfileStore>`.
pub struct ProfileStore {
    inner: Mutex<Inner>,
}

impl Default for ProfileStore {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ProfileStore {
    /// An empty store with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store holding at most `capacity` curve pairs; the least
    /// recently used entries are evicted beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_limits(capacity, u64::MAX)
    }

    /// An empty store bounded two ways: every machine's entries may occupy
    /// at most `per_machine_bytes` of serialized curve data (primary,
    /// size-aware bound — a machine serving huge models can't starve the
    /// others), and the whole store holds at most `capacity` curve pairs
    /// (secondary LRU cap). Within each bound the least recently used
    /// entries go first. A machine's single most recent entry is never
    /// evicted by the byte quota, even if that one entry exceeds it —
    /// dropping the curve a job just measured would force an endless
    /// re-profile loop.
    pub fn with_limits(capacity: usize, per_machine_bytes: u64) -> Self {
        assert!(capacity > 0, "profile store capacity must be positive");
        assert!(per_machine_bytes > 0, "byte quota must be positive");
        ProfileStore {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                machines: BTreeMap::new(),
                clock: 0,
                capacity,
                byte_quota: per_machine_bytes,
                stats: StoreStats::default(),
            }),
        }
    }

    /// Number of stored curve pairs.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether curves for `key` measured on `machine` are present.
    pub fn contains(&self, machine: MachineSignature, key: &OpKey) -> bool {
        self.inner
            .lock()
            .entries
            .contains_key(&(machine, key.0, key.1.clone()))
    }

    /// Fetches the stored curves for every requested key that is present on
    /// `machine`, bumping their recency. The result is the warm-start input
    /// for [`nnrt_sched::Runtime::prepare_warm_pooled`].
    pub fn lookup(&self, machine: MachineSignature, keys: &[OpKey]) -> Vec<KeyProfile> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        let now = inner.clock;
        let mut hits = Vec::new();
        for key in keys {
            let store_key = (machine, key.0, key.1.clone());
            if let Some(entry) = inner.entries.get_mut(&store_key) {
                let lru = &mut inner
                    .machines
                    .get_mut(&machine)
                    .expect("entry's machine")
                    .lru;
                let mut slot = (entry.last_used, store_key);
                lru.remove(&slot);
                slot.0 = now;
                lru.insert(slot);
                entry.last_used = now;
                hits.push(entry.profile.clone());
                inner.stats.hits += 1;
            } else {
                inner.stats.misses += 1;
            }
        }
        hits
    }

    /// Lifetime hit/miss/eviction counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    /// Serialized bytes currently held for `machine`'s entries.
    pub fn machine_bytes(&self, machine: MachineSignature) -> u64 {
        self.inner
            .lock()
            .machines
            .get(&machine)
            .map_or(0, |m| m.bytes)
    }

    /// Serialized bytes currently held across all machines.
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().machines.values().map(|m| m.bytes).sum()
    }

    /// Serialized size of one curve pair — the unit the byte quota charges.
    fn entry_bytes(profile: &KeyProfile) -> u64 {
        serde_json::to_string(profile)
            .expect("profile serializes")
            .len() as u64
    }

    /// Inserts one entry, keeping the per-machine byte accounting exact
    /// when an existing entry is overwritten.
    fn insert_entry(inner: &mut Inner, key: StoreKey, profile: KeyProfile, last_used: u64) {
        let bytes = Self::entry_bytes(&profile);
        let held = inner.machines.entry(key.0).or_default();
        let old = inner.entries.insert(
            key.clone(),
            Entry {
                profile,
                last_used,
                bytes,
            },
        );
        let mut slot = (last_used, key);
        if let Some(old) = old {
            held.bytes -= old.bytes;
            slot.0 = old.last_used;
            held.lru.remove(&slot);
            slot.0 = last_used;
        }
        held.bytes += bytes;
        held.lru.insert(slot);
    }

    /// Removes one entry, releasing its bytes. Returns the bytes released.
    fn remove_entry(inner: &mut Inner, key: &StoreKey) -> u64 {
        let Some(entry) = inner.entries.remove(key) else {
            return 0;
        };
        let held = inner.machines.get_mut(&key.0).expect("entry's machine");
        held.bytes -= entry.bytes;
        held.lru.remove(&(entry.last_used, key.clone()));
        if held.lru.is_empty() {
            inner.machines.remove(&key.0);
        }
        entry.bytes
    }

    /// Inserts (or refreshes) curves measured on `machine`, then enforces
    /// the per-machine byte quota and the LRU entry cap.
    pub fn insert_many(&self, machine: MachineSignature, profiles: &[KeyProfile]) {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let now = inner.clock;
        for p in profiles {
            Self::insert_entry(
                &mut inner,
                (machine, p.kind, p.shape.clone()),
                p.clone(),
                now,
            );
        }
        Self::evict_over_limits(&mut inner);
    }

    /// Evicts one entry and counts it.
    fn evict(inner: &mut Inner, victim: StoreKey) {
        let bytes = Self::remove_entry(inner, &victim);
        inner.stats.evictions += 1;
        inner.stats.evicted_bytes += bytes;
    }

    fn evict_over_limits(inner: &mut Inner) {
        // Primary bound: the per-machine byte quota. Machines are visited
        // in signature order (deterministic); each sheds LRU entries until
        // it fits the quota or only one entry remains (the newest survivor
        // always stays — see `with_limits`).
        let quota = inner.byte_quota;
        while let Some(held) = inner
            .machines
            .values()
            .find(|m| m.bytes > quota && m.lru.len() >= 2)
        {
            let (_, victim) = held.lru.first().expect("machine holds entries").clone();
            Self::evict(inner, victim);
        }
        // Secondary bound: the global LRU entry cap. The victim is the
        // least recently used entry of all (ties broken by key order, so
        // eviction is deterministic).
        while inner.entries.len() > inner.capacity {
            let (_, victim) = inner
                .machines
                .values()
                .filter_map(|m| m.lru.first())
                .min()
                .expect("non-empty store above capacity")
                .clone();
            Self::evict(inner, victim);
        }
    }

    /// Serializes the store to versioned JSON. Entries are key-sorted, so
    /// `snapshot -> restore -> snapshot` is byte-identical.
    pub fn snapshot(&self) -> String {
        let inner = self.inner.lock();
        let mut entries: Vec<SnapshotEntry> = inner
            .entries
            .iter()
            .map(|((machine, kind, shape), entry)| SnapshotEntry {
                machine: *machine,
                kind: *kind,
                shape: shape.clone(),
                compact: entry.profile.compact.clone(),
                scatter: entry.profile.scatter.clone(),
            })
            .collect();
        entries.sort_by(|a, b| (a.machine, a.kind, &a.shape).cmp(&(b.machine, b.kind, &b.shape)));
        let snap = Snapshot {
            format: SNAPSHOT_FORMAT.to_string(),
            version: SNAPSHOT_VERSION,
            entries,
        };
        serde_json::to_string_pretty(&snap).expect("profile snapshot serializes")
    }

    /// Deterministically drops `⌊fraction · len⌋` entries, simulating a
    /// partially lost snapshot restore — the chaos-injection hook. Victims
    /// are chosen by a seeded hash over the key-sorted entry list, so the
    /// same `(seed, fraction)` against the same contents always removes the
    /// same entries. Returns how many entries were dropped.
    pub fn corrupt_deterministic(&self, seed: u64, fraction: f64) -> usize {
        let mut inner = self.inner.lock();
        let mut keys: Vec<StoreKey> = inner.entries.keys().cloned().collect();
        keys.sort();
        let victims = (keys.len() as f64 * fraction.clamp(0.0, 1.0)).floor() as usize;
        let mut scored: Vec<(u64, usize)> = (0..keys.len())
            .map(|i| (crate::chaos::mix64(seed ^ i as u64), i))
            .collect();
        scored.sort_unstable();
        for &(_, i) in scored.iter().take(victims) {
            Self::remove_entry(&mut inner, &keys[i]);
        }
        victims
    }

    /// Merges a snapshot into the store: loaded curves are added, entries
    /// already present for the same key are overwritten with the snapshot's
    /// curves *without* bumping their recency, and brand-new keys enter the
    /// LRU order as the coldest entries. Merged history must never evict
    /// curves live jobs are actively using. Returns the number of entries
    /// merged.
    pub fn restore(&self, text: &str) -> Result<usize, StoreError> {
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| StoreError::Corrupt(e.to_string()))?;
        match value.get("format").and_then(|f| f.as_str()) {
            None => return Err(StoreError::BadHeader("missing `format` field".to_string())),
            Some(f) if f != SNAPSHOT_FORMAT => {
                return Err(StoreError::BadHeader(format!(
                    "format `{f}` is not `{SNAPSHOT_FORMAT}`"
                )))
            }
            Some(_) => {}
        }
        let version = value
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| StoreError::BadHeader("missing `version` field".to_string()))?;
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let snap =
            Snapshot::from_json_value(&value).map_err(|e| StoreError::Corrupt(e.to_string()))?;
        let merged = snap.entries.len();
        let mut inner = self.inner.lock();
        for e in snap.entries {
            let key = (e.machine, e.kind, e.shape.clone());
            // Keys already live keep their recency; new keys start cold
            // (`last_used = 0` predates every clock tick).
            let last_used = inner.entries.get(&key).map_or(0, |old| old.last_used);
            Self::insert_entry(
                &mut inner,
                key,
                KeyProfile {
                    kind: e.kind,
                    shape: e.shape,
                    compact: e.compact,
                    scatter: e.scatter,
                },
                last_used,
            );
        }
        Self::evict_over_limits(&mut inner);
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_sched::Curve;
    use proptest::prelude::*;

    fn profile(kind: OpKind, dims: &[usize]) -> KeyProfile {
        KeyProfile {
            kind,
            shape: Shape(dims.to_vec()),
            compact: Curve {
                samples: vec![(1, 2.0), (5, 0.5)],
            },
            scatter: Curve {
                samples: vec![(1, 2.5), (5, 0.75)],
            },
        }
    }

    #[test]
    fn lookup_returns_only_present_keys() {
        let store = ProfileStore::new();
        let sig = MachineSignature(42);
        store.insert_many(sig, &[profile(OpKind::MatMul, &[64, 64])]);
        let keys = vec![
            (OpKind::MatMul, Shape(vec![64, 64])),
            (OpKind::Relu, Shape(vec![64])),
        ];
        let hits = store.lookup(sig, &keys);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].kind, OpKind::MatMul);
        // A different machine sees nothing.
        assert!(store.lookup(MachineSignature(7), &keys).is_empty());
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        let store = ProfileStore::with_capacity(2);
        let sig = MachineSignature(1);
        store.insert_many(sig, &[profile(OpKind::MatMul, &[8])]);
        store.insert_many(sig, &[profile(OpKind::Relu, &[8])]);
        // Touch MatMul so Relu becomes the LRU victim.
        store.lookup(sig, &[(OpKind::MatMul, Shape(vec![8]))]);
        store.insert_many(sig, &[profile(OpKind::Add, &[8])]);
        assert_eq!(store.len(), 2);
        assert!(store.contains(sig, &(OpKind::MatMul, Shape(vec![8]))));
        assert!(store.contains(sig, &(OpKind::Add, Shape(vec![8]))));
        assert!(!store.contains(sig, &(OpKind::Relu, Shape(vec![8]))));
    }

    #[test]
    fn stats_count_hits_misses_and_evictions() {
        let store = ProfileStore::with_capacity(2);
        let sig = MachineSignature(8);
        assert_eq!(store.stats(), StoreStats::default());
        store.insert_many(sig, &[profile(OpKind::MatMul, &[8])]);
        // One hit, one miss.
        store.lookup(
            sig,
            &[
                (OpKind::MatMul, Shape(vec![8])),
                (OpKind::Relu, Shape(vec![8])),
            ],
        );
        // Two more inserts squeeze one entry out of the capacity-2 store.
        store.insert_many(
            sig,
            &[profile(OpKind::Relu, &[8]), profile(OpKind::Add, &[8])],
        );
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 1);
        assert!(
            stats.evicted_bytes > 0,
            "an evicted entry releases its serialized bytes"
        );
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(StoreStats::default().hit_rate(), 0.0, "no lookups yet");
    }

    #[test]
    fn byte_quota_evicts_the_machines_lru_entries() {
        let one_entry = ProfileStore::entry_bytes(&profile(OpKind::MatMul, &[8]));
        // Quota fits about two entries of this size.
        let store = ProfileStore::with_limits(100, one_entry * 2 + one_entry / 2);
        let sig = MachineSignature(1);
        store.insert_many(sig, &[profile(OpKind::MatMul, &[8])]);
        store.insert_many(sig, &[profile(OpKind::Relu, &[8])]);
        assert_eq!(store.stats().evictions, 0, "two entries fit the quota");
        // Touch MatMul so Relu is the LRU victim when Add pushes it over.
        store.lookup(sig, &[(OpKind::MatMul, Shape(vec![8]))]);
        store.insert_many(sig, &[profile(OpKind::Add, &[8])]);
        assert_eq!(store.len(), 2);
        assert!(store.contains(sig, &(OpKind::MatMul, Shape(vec![8]))));
        assert!(store.contains(sig, &(OpKind::Add, Shape(vec![8]))));
        assert!(!store.contains(sig, &(OpKind::Relu, Shape(vec![8]))));
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.evicted_bytes > 0);
        assert!(store.machine_bytes(sig) <= one_entry * 2 + one_entry / 2);
    }

    #[test]
    fn byte_quota_is_per_machine_and_spares_the_last_entry() {
        let one_entry = ProfileStore::entry_bytes(&profile(OpKind::MatMul, &[8]));
        // A quota smaller than a single entry: every machine's newest entry
        // still survives (evicting it would force an endless re-profile
        // loop), and machines don't steal each other's budget.
        let store = ProfileStore::with_limits(100, one_entry / 2);
        let a = MachineSignature(1);
        let b = MachineSignature(2);
        store.insert_many(a, &[profile(OpKind::MatMul, &[8])]);
        store.insert_many(b, &[profile(OpKind::MatMul, &[8])]);
        assert_eq!(store.len(), 2, "one oversized entry per machine survives");
        assert_eq!(store.stats().evictions, 0);
        // A second entry on `a` trips its quota; `b` is untouched.
        store.insert_many(a, &[profile(OpKind::Relu, &[8])]);
        assert_eq!(store.len(), 2);
        assert!(store.contains(b, &(OpKind::MatMul, Shape(vec![8]))));
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn byte_accounting_survives_overwrites_corruption_and_restore() {
        let store = ProfileStore::new();
        let sig = MachineSignature(3);
        store.insert_many(
            sig,
            &[profile(OpKind::MatMul, &[4]), profile(OpKind::Relu, &[4])],
        );
        let expected: u64 = [OpKind::MatMul, OpKind::Relu]
            .iter()
            .map(|&k| ProfileStore::entry_bytes(&profile(k, &[4])))
            .sum();
        assert_eq!(store.total_bytes(), expected);
        // Overwriting the same key must not double-charge.
        store.insert_many(sig, &[profile(OpKind::MatMul, &[4])]);
        assert_eq!(store.total_bytes(), expected);
        // Corruption releases the dropped entries' bytes.
        store.corrupt_deterministic(7, 1.0);
        assert_eq!(store.total_bytes(), 0);
        // Restore recharges them.
        let donor = ProfileStore::new();
        donor.insert_many(sig, &[profile(OpKind::MatMul, &[4])]);
        store.restore(&donor.snapshot()).unwrap();
        assert_eq!(
            store.total_bytes(),
            ProfileStore::entry_bytes(&profile(OpKind::MatMul, &[4]))
        );
    }

    #[test]
    fn snapshot_restore_resnapshot_is_byte_identical() {
        let store = ProfileStore::new();
        let sig = MachineSignature(99);
        store.insert_many(
            sig,
            &[
                profile(OpKind::MatMul, &[32, 32]),
                profile(OpKind::Relu, &[128]),
            ],
        );
        let snap1 = store.snapshot();
        let fresh = ProfileStore::new();
        assert_eq!(fresh.restore(&snap1), Ok(2));
        let snap2 = fresh.snapshot();
        assert_eq!(snap1, snap2);
    }

    #[test]
    fn restore_merges_rather_than_replaces() {
        let a = ProfileStore::new();
        let sig = MachineSignature(5);
        a.insert_many(sig, &[profile(OpKind::MatMul, &[4])]);
        let snap = a.snapshot();

        let b = ProfileStore::new();
        b.insert_many(sig, &[profile(OpKind::Relu, &[4])]);
        b.restore(&snap).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn merged_snapshot_entries_do_not_evict_hotter_live_entries() {
        // Regression: restore() used to stamp merged entries as the most
        // recently used, so a snapshot full of stale keys could evict the
        // curves live jobs were actively using.
        let donor = ProfileStore::new();
        let sig = MachineSignature(11);
        donor.insert_many(
            sig,
            &[profile(OpKind::Add, &[16]), profile(OpKind::MatMul, &[16])],
        );
        let snap = donor.snapshot();

        let live = ProfileStore::with_capacity(2);
        live.insert_many(sig, &[profile(OpKind::MatMul, &[16])]);
        live.insert_many(sig, &[profile(OpKind::Relu, &[16])]);
        // Both live entries are hot: their recency postdates any merge.
        live.lookup(
            sig,
            &[
                (OpKind::MatMul, Shape(vec![16])),
                (OpKind::Relu, Shape(vec![16])),
            ],
        );
        live.restore(&snap).unwrap();
        // The merged-only Add key is the coldest and must be the eviction
        // victim; both hot live keys survive.
        assert_eq!(live.len(), 2);
        assert!(live.contains(sig, &(OpKind::MatMul, Shape(vec![16]))));
        assert!(live.contains(sig, &(OpKind::Relu, Shape(vec![16]))));
        assert!(!live.contains(sig, &(OpKind::Add, Shape(vec![16]))));
    }

    #[test]
    fn restore_overwrite_preserves_the_live_entrys_recency() {
        let donor = ProfileStore::new();
        let sig = MachineSignature(12);
        donor.insert_many(sig, &[profile(OpKind::MatMul, &[8])]);
        let snap = donor.snapshot();

        let live = ProfileStore::with_capacity(2);
        live.insert_many(sig, &[profile(OpKind::MatMul, &[8])]);
        live.insert_many(sig, &[profile(OpKind::Relu, &[8])]);
        // Relu is hotter than MatMul; the snapshot overwrites MatMul. If the
        // overwrite bumped MatMul's recency, the later capacity squeeze
        // would evict Relu instead of MatMul.
        live.lookup(sig, &[(OpKind::Relu, Shape(vec![8]))]);
        live.restore(&snap).unwrap();
        live.insert_many(sig, &[profile(OpKind::Add, &[8])]);
        assert!(live.contains(sig, &(OpKind::Relu, Shape(vec![8]))));
        assert!(!live.contains(sig, &(OpKind::MatMul, Shape(vec![8]))));
    }

    #[test]
    fn corruption_is_deterministic_and_bounded() {
        let build = || {
            let store = ProfileStore::new();
            let sig = MachineSignature(3);
            store.insert_many(
                sig,
                &[
                    profile(OpKind::MatMul, &[4]),
                    profile(OpKind::Relu, &[4]),
                    profile(OpKind::Add, &[4]),
                    profile(OpKind::MatMul, &[8]),
                ],
            );
            store
        };
        let a = build();
        let b = build();
        assert_eq!(a.corrupt_deterministic(42, 0.5), 2);
        assert_eq!(b.corrupt_deterministic(42, 0.5), 2);
        assert_eq!(a.snapshot(), b.snapshot(), "same seed, same victims");
        assert_eq!(a.len(), 2);

        let c = build();
        assert_eq!(c.corrupt_deterministic(42, 0.0), 0);
        assert_eq!(c.len(), 4, "zero fraction is a no-op");
        assert_eq!(c.corrupt_deterministic(42, 1.0), 4);
        assert!(c.is_empty(), "full fraction empties the store");
    }

    #[test]
    fn corrupted_and_mismatched_snapshots_are_typed_errors() {
        let store = ProfileStore::new();
        assert!(matches!(
            store.restore("{nonsense"),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(
            store.restore("{\"entries\": []}"),
            Err(StoreError::BadHeader(_))
        ));
        assert!(matches!(
            store.restore("{\"format\": \"other-tool\", \"version\": 1, \"entries\": []}"),
            Err(StoreError::BadHeader(_))
        ));
        let future =
            format!("{{\"format\": \"{SNAPSHOT_FORMAT}\", \"version\": 99, \"entries\": []}}");
        assert_eq!(
            store.restore(&future),
            Err(StoreError::VersionMismatch {
                found: 99,
                expected: 1
            })
        );
        // A good header with mangled entries is Corrupt, not a panic.
        let bad_entries = format!(
            "{{\"format\": \"{SNAPSHOT_FORMAT}\", \"version\": 1, \"entries\": [{{\"x\": 1}}]}}"
        );
        assert!(matches!(
            store.restore(&bad_entries),
            Err(StoreError::Corrupt(_))
        ));
        assert!(store.is_empty(), "failed restores must not partially apply");
    }

    /// The eviction rule with every victim found by a scan over all
    /// entries: the reference the indexed store must match.
    struct ScanModel {
        entries: HashMap<StoreKey, (KeyProfile, u64)>,
        clock: u64,
        capacity: usize,
        quota: u64,
        stats: StoreStats,
    }

    impl ScanModel {
        fn machine_bytes(&self, m: MachineSignature) -> u64 {
            self.entries
                .iter()
                .filter(|(k, _)| k.0 == m)
                .map(|(_, (p, _))| ProfileStore::entry_bytes(p))
                .sum()
        }

        fn victim(&self, machine: Option<MachineSignature>) -> Option<StoreKey> {
            self.entries
                .iter()
                .filter(|(k, _)| machine.is_none_or(|m| k.0 == m))
                .min_by(|a, b| a.1 .1.cmp(&b.1 .1).then(a.0.cmp(b.0)))
                .map(|(k, _)| k.clone())
        }

        fn evict(&mut self, key: StoreKey) {
            let (p, _) = self.entries.remove(&key).expect("victim present");
            self.stats.evictions += 1;
            self.stats.evicted_bytes += ProfileStore::entry_bytes(&p);
        }

        fn evict_over_limits(&mut self) {
            loop {
                let machines: BTreeSet<MachineSignature> =
                    self.entries.keys().map(|k| k.0).collect();
                let over = machines.into_iter().find(|&m| {
                    self.machine_bytes(m) > self.quota
                        && self.entries.keys().filter(|k| k.0 == m).count() >= 2
                });
                let Some(m) = over else { break };
                let victim = self.victim(Some(m)).expect("machine holds entries");
                self.evict(victim);
            }
            while self.entries.len() > self.capacity {
                let victim = self.victim(None).expect("non-empty");
                self.evict(victim);
            }
        }

        fn insert_many(&mut self, m: MachineSignature, profiles: &[KeyProfile]) {
            self.clock += 1;
            for p in profiles {
                self.entries
                    .insert((m, p.kind, p.shape.clone()), (p.clone(), self.clock));
            }
            self.evict_over_limits();
        }

        fn lookup(&mut self, m: MachineSignature, keys: &[OpKey]) -> Vec<KeyProfile> {
            self.clock += 1;
            let mut hits = Vec::new();
            for key in keys {
                if let Some((p, last_used)) = self.entries.get_mut(&(m, key.0, key.1.clone())) {
                    *last_used = self.clock;
                    hits.push(p.clone());
                    self.stats.hits += 1;
                } else {
                    self.stats.misses += 1;
                }
            }
            hits
        }

        fn restore(&mut self, text: &str) {
            let snap: Snapshot = serde_json::from_str(text).expect("valid snapshot");
            for e in snap.entries {
                let key = (e.machine, e.kind, e.shape.clone());
                let last_used = self.entries.get(&key).map_or(0, |(_, t)| *t);
                let profile = KeyProfile {
                    kind: e.kind,
                    shape: e.shape,
                    compact: e.compact,
                    scatter: e.scatter,
                };
                self.entries.insert(key, (profile, last_used));
            }
            self.evict_over_limits();
        }

        fn corrupt(&mut self, seed: u64, fraction: f64) {
            let mut keys: Vec<StoreKey> = self.entries.keys().cloned().collect();
            keys.sort();
            let victims = (keys.len() as f64 * fraction).floor() as usize;
            let mut scored: Vec<(u64, usize)> = (0..keys.len())
                .map(|i| (crate::chaos::mix64(seed ^ i as u64), i))
                .collect();
            scored.sort_unstable();
            for &(_, i) in scored.iter().take(victims) {
                self.entries.remove(&keys[i]);
            }
        }

        /// The model's contents in the store's snapshot format.
        fn snapshot(&self) -> String {
            let copy = ProfileStore::with_capacity(usize::MAX);
            for (k, (p, _)) in &self.entries {
                copy.insert_many(k.0, std::slice::from_ref(p));
            }
            copy.snapshot()
        }
    }

    /// One generated store operation: `(op, machine, keys, seed)`. Keys
    /// are `(kind, dim, samples)` triples from small ranges so they
    /// collide often; `samples` varies the entry's byte size.
    type Op = (u8, u64, Vec<(usize, usize, usize)>, u64);

    fn arb_op() -> impl Strategy<Value = Op> {
        (
            0u8..4,
            1u64..4,
            proptest::collection::vec((0usize..3, 1usize..4, 1usize..4), 1..5),
            0u64..64,
        )
    }

    fn profiles_of(keys: &[(usize, usize, usize)]) -> Vec<KeyProfile> {
        const KINDS: [OpKind; 3] = [OpKind::MatMul, OpKind::Relu, OpKind::Conv2D];
        keys.iter()
            .map(|&(kind, dim, samples)| KeyProfile {
                kind: KINDS[kind],
                shape: Shape(vec![dim]),
                compact: Curve {
                    samples: (1..=samples as u32).map(|t| (t, 1.0 / t as f64)).collect(),
                },
                scatter: Curve {
                    samples: vec![(1, 0.5)],
                },
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn indexed_eviction_matches_the_scan_rule(
            capacity in 1usize..7,
            quota in proptest::sample::select(vec![u64::MAX, 60, 150, 300]),
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let store = ProfileStore::with_limits(capacity, quota);
            let mut model = ScanModel {
                entries: HashMap::new(),
                clock: 0,
                capacity,
                quota,
                stats: StoreStats::default(),
            };
            for (op, machine, keys, seed) in ops {
                let m = MachineSignature(machine);
                let profiles = profiles_of(&keys);
                match op {
                    0 => {
                        store.insert_many(m, &profiles);
                        model.insert_many(m, &profiles);
                    }
                    1 => {
                        let keys: Vec<OpKey> = profiles.iter().map(KeyProfile::key).collect();
                        prop_assert_eq!(store.lookup(m, &keys), model.lookup(m, &keys));
                    }
                    2 => {
                        let other = ProfileStore::with_capacity(usize::MAX);
                        other.insert_many(m, &profiles);
                        other.insert_many(MachineSignature(seed % 3 + 1), &profiles[1..]);
                        let text = other.snapshot();
                        store.restore(&text).expect("valid snapshot");
                        model.restore(&text);
                    }
                    _ => {
                        let fraction = (seed % 5) as f64 / 4.0;
                        store.corrupt_deterministic(seed, fraction);
                        model.corrupt(seed, fraction);
                    }
                }
                prop_assert_eq!(store.snapshot(), model.snapshot());
                prop_assert_eq!(store.stats(), model.stats);
                for sig in 1..4 {
                    let sig = MachineSignature(sig);
                    prop_assert_eq!(store.machine_bytes(sig), model.machine_bytes(sig));
                }
            }
        }
    }
}
