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
use std::collections::{BTreeSet, HashMap};
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
}

/// Lifetime counters of one [`ProfileStore`]: how often lookups were served
/// from the store, how often they missed, and how much the LRU entry cap
/// has thrown away. The fleet surfaces them in its report and over the
/// wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Keys served from the store across all lookups.
    pub hits: u64,
    /// Keys requested but absent across all lookups.
    pub misses: u64,
    /// Entries evicted by the LRU capacity cap.
    pub evictions: u64,
    /// Serialized size of the evicted curve pairs, each measured as it
    /// was evicted.
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

struct Inner {
    entries: HashMap<StoreKey, Entry>,
    /// Every key in eviction order: least recently used first, ties broken
    /// by key order.
    lru: BTreeSet<(u64, StoreKey)>,
    clock: u64,
    capacity: usize,
    stats: StoreStats,
    /// Content generation: bumped by every entry insert, overwrite and
    /// removal, never by a recency stamp (snapshots hold no stamps).
    generation: u64,
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

    /// An empty store holding at most `capacity` curve pairs across all
    /// machines; the least recently used entries are evicted beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "profile store capacity must be positive");
        ProfileStore {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                lru: BTreeSet::new(),
                clock: 0,
                capacity,
                stats: StoreStats::default(),
                generation: 0,
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
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let now = inner.clock;
        let mut hits = Vec::new();
        for key in keys {
            if let Some(entry) = Self::stamp(&mut inner, machine, key, now) {
                hits.push(entry.profile.clone());
                inner.stats.hits += 1;
            } else {
                inner.stats.misses += 1;
            }
        }
        hits
    }

    /// Moves `key`'s entry on `machine`, if present, to recency `now`.
    fn stamp<'a>(
        inner: &'a mut Inner,
        machine: MachineSignature,
        key: &OpKey,
        now: u64,
    ) -> Option<&'a Entry> {
        let store_key = (machine, key.0, key.1.clone());
        let entry = inner.entries.get_mut(&store_key)?;
        let mut slot = (entry.last_used, store_key);
        inner.lru.remove(&slot);
        slot.0 = now;
        inner.lru.insert(slot);
        entry.last_used = now;
        Some(entry)
    }

    /// Lifetime hit/miss/eviction counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    /// The store's content generation. It moves whenever an entry is
    /// inserted, overwritten or removed (eviction, corruption and restore
    /// included) and stays put across lookups and recency stamps, so an
    /// unchanged generation means an unchanged [`ProfileStore::snapshot`].
    pub fn generation(&self) -> u64 {
        self.inner.lock().generation
    }

    /// Serialized size of one curve pair, as [`StoreStats::evicted_bytes`]
    /// counts it.
    fn entry_bytes(profile: &KeyProfile) -> u64 {
        serde_json::to_string(profile)
            .expect("profile serializes")
            .len() as u64
    }

    /// Inserts one entry, moving an overwritten key's recency slot.
    fn insert_entry(inner: &mut Inner, key: StoreKey, profile: KeyProfile, last_used: u64) {
        inner.generation += 1;
        let old = inner
            .entries
            .insert(key.clone(), Entry { profile, last_used });
        let mut slot = (last_used, key);
        if let Some(old) = old {
            slot.0 = old.last_used;
            inner.lru.remove(&slot);
            slot.0 = last_used;
        }
        inner.lru.insert(slot);
    }

    /// Inserts (or refreshes) curves measured on `machine`, then enforces
    /// the LRU entry cap.
    pub fn insert_many(&self, machine: MachineSignature, profiles: &[KeyProfile]) {
        self.publish(machine, &[], profiles);
    }

    /// Publishes one placement's outcome on `machine` in a single clock
    /// tick: the `touched` keys it read warm are stamped as just used, the
    /// `fresh` curves it fitted are inserted, and the LRU cap is enforced.
    /// When `touched` holds keys whose stored curves the placement exported
    /// unchanged, this leaves contents, recency, stats and eviction order
    /// exactly as [`ProfileStore::insert_many`] of `touched`'s curves plus
    /// `fresh` would, without overwriting the warm entries. A touched key
    /// no longer present is skipped.
    pub fn publish(&self, machine: MachineSignature, touched: &[OpKey], fresh: &[KeyProfile]) {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let now = inner.clock;
        for key in touched {
            Self::stamp(&mut inner, machine, key, now);
        }
        for p in fresh {
            Self::insert_entry(
                &mut inner,
                (machine, p.kind, p.shape.clone()),
                p.clone(),
                now,
            );
        }
        Self::evict_over_capacity(&mut inner);
    }

    /// Evicts least recently used entries (ties broken by key order, so
    /// eviction is deterministic) until the store fits its capacity.
    fn evict_over_capacity(inner: &mut Inner) {
        while inner.entries.len() > inner.capacity {
            let (_, victim) = inner.lru.pop_first().expect("non-empty store");
            let entry = inner.entries.remove(&victim).expect("indexed entry");
            inner.generation += 1;
            inner.stats.evictions += 1;
            inner.stats.evicted_bytes += Self::entry_bytes(&entry.profile);
        }
    }

    /// Every entry in the order the LRU cap would evict them: least
    /// recently used first, ties broken by key.
    #[cfg(test)]
    fn eviction_order(&self) -> Vec<(u64, StoreKey)> {
        self.inner.lock().lru.iter().cloned().collect()
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
            let entry = inner.entries.remove(&keys[i]).expect("listed key");
            inner.lru.remove(&(entry.last_used, keys[i].clone()));
        }
        inner.generation += victims as u64;
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
        Self::evict_over_capacity(&mut inner);
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
    fn evicted_bytes_count_each_victims_latest_size() {
        let small = profile(OpKind::MatMul, &[8]);
        let mut large = small.clone();
        large
            .compact
            .samples
            .extend([(9, 0.25), (17, 0.125), (34, 0.0625)]);
        let (small_bytes, large_bytes) = (
            ProfileStore::entry_bytes(&small),
            ProfileStore::entry_bytes(&large),
        );
        assert!(large_bytes > small_bytes);
        let store = ProfileStore::with_capacity(2);
        let sig = MachineSignature(3);
        store.insert_many(sig, &[small, profile(OpKind::Relu, &[8])]);
        // Overwritten, then evicted: the eviction counts the curve it drops.
        store.insert_many(sig, std::slice::from_ref(&large));
        store.lookup(sig, &[(OpKind::Relu, Shape(vec![8]))]);
        store.insert_many(sig, &[profile(OpKind::Add, &[8])]);
        assert!(!store.contains(sig, &large.key()));
        let stats = store.stats();
        assert_eq!((stats.evictions, stats.evicted_bytes), (1, large_bytes));
        // A restore that overwrites a live key and a corruption that drops
        // every entry remove curves without evicting them.
        let donor = ProfileStore::new();
        donor.insert_many(sig, &[profile(OpKind::Add, &[8])]);
        store.restore(&donor.snapshot()).unwrap();
        store.corrupt_deterministic(7, 1.0);
        assert!(store.is_empty());
        assert_eq!(store.stats(), stats);
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
    fn generation_moves_with_contents_not_recency() {
        let store = ProfileStore::with_capacity(2);
        let sig = MachineSignature(4);
        let g0 = store.generation();
        store.insert_many(sig, &[profile(OpKind::MatMul, &[8])]);
        let g1 = store.generation();
        assert_ne!(g0, g1, "an insert changes the contents");
        let matmul = (OpKind::MatMul, Shape(vec![8]));
        store.lookup(sig, std::slice::from_ref(&matmul));
        store.publish(sig, std::slice::from_ref(&matmul), &[]);
        assert_eq!(store.generation(), g1, "stamps leave the contents alone");
        store.insert_many(sig, &[profile(OpKind::MatMul, &[8])]);
        assert_ne!(store.generation(), g1, "an overwrite counts");
        let g2 = store.generation();
        store.insert_many(
            sig,
            &[profile(OpKind::Relu, &[8]), profile(OpKind::Add, &[8])],
        );
        assert_eq!(store.stats().evictions, 1);
        let g3 = store.generation();
        assert!(g3 > g2);
        store.corrupt_deterministic(1, 0.0);
        assert_eq!(store.generation(), g3, "dropping nothing changes nothing");
        store.corrupt_deterministic(1, 1.0);
        assert!(store.generation() > g3, "dropped entries count");
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
        stats: StoreStats,
    }

    impl ScanModel {
        fn evict_over_capacity(&mut self) {
            while self.entries.len() > self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .min_by(|a, b| a.1 .1.cmp(&b.1 .1).then(a.0.cmp(b.0)))
                    .map(|(k, _)| k.clone())
                    .expect("non-empty");
                let (p, _) = self.entries.remove(&victim).expect("victim present");
                self.stats.evictions += 1;
                self.stats.evicted_bytes += ProfileStore::entry_bytes(&p);
            }
        }

        fn insert_many(&mut self, m: MachineSignature, profiles: &[KeyProfile]) {
            self.clock += 1;
            for p in profiles {
                self.entries
                    .insert((m, p.kind, p.shape.clone()), (p.clone(), self.clock));
            }
            self.evict_over_capacity();
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
            self.evict_over_capacity();
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
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let store = ProfileStore::with_capacity(capacity);
            let mut model = ScanModel {
                entries: HashMap::new(),
                clock: 0,
                capacity,
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
            }
        }

        #[test]
        fn publish_matches_insert_many_of_warm_and_fresh(
            capacity in 1usize..7,
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let delta = ProfileStore::with_capacity(capacity);
            let whole = ProfileStore::with_capacity(capacity);
            for (op, machine, keys, seed) in ops {
                let m = MachineSignature(machine);
                let mut profiles = profiles_of(&keys);
                profiles.sort_by_key(KeyProfile::key);
                profiles.dedup_by_key(|p| p.key());
                let keys: Vec<OpKey> = profiles.iter().map(KeyProfile::key).collect();
                match op {
                    // A placement: look the keys up, fit the missing ones,
                    // publish.
                    0 | 1 => {
                        let warm = delta.lookup(m, &keys);
                        prop_assert_eq!(&warm, &whole.lookup(m, &keys));
                        let touched: Vec<OpKey> = warm.iter().map(KeyProfile::key).collect();
                        let fresh: Vec<KeyProfile> = profiles
                            .into_iter()
                            .filter(|p| touched.binary_search(&p.key()).is_err())
                            .collect();
                        delta.publish(m, &touched, &fresh);
                        let mut all = warm;
                        all.extend(fresh);
                        whole.insert_many(m, &all);
                    }
                    2 => {
                        prop_assert_eq!(delta.lookup(m, &keys), whole.lookup(m, &keys));
                    }
                    _ => {
                        let fraction = (seed % 5) as f64 / 4.0;
                        delta.corrupt_deterministic(seed, fraction);
                        whole.corrupt_deterministic(seed, fraction);
                    }
                }
                prop_assert_eq!(delta.snapshot(), whole.snapshot());
                prop_assert_eq!(delta.stats(), whole.stats());
                prop_assert_eq!(delta.eviction_order(), whole.eviction_order());
            }
        }

        #[test]
        fn unchanged_generation_means_unchanged_snapshot(
            capacity in 1usize..7,
            ops in proptest::collection::vec((0u8..6, 1u64..4, proptest::collection::vec((0usize..3, 1usize..4, 1usize..4), 0..5), 0u64..64), 1..40),
        ) {
            let store = ProfileStore::with_capacity(capacity);
            let mut generation = store.generation();
            let mut snapshot = store.snapshot();
            for (op, machine, keys, seed) in ops {
                let m = MachineSignature(machine);
                let profiles = profiles_of(&keys);
                let keys: Vec<OpKey> = profiles.iter().map(KeyProfile::key).collect();
                match op {
                    0 => store.insert_many(m, &profiles),
                    1 => {
                        let warm = store.lookup(m, &keys);
                        let touched: Vec<OpKey> = warm.iter().map(KeyProfile::key).collect();
                        let fresh: Vec<KeyProfile> = profiles
                            .into_iter()
                            .filter(|p| !touched.contains(&p.key()))
                            .collect();
                        store.publish(m, &touched, &fresh);
                    }
                    2 => {
                        store.lookup(m, &keys);
                    }
                    3 => {
                        // Keys only: a touch-only publication.
                        store.publish(m, &keys, &[]);
                    }
                    4 => {
                        let other = ProfileStore::with_capacity(usize::MAX);
                        other.insert_many(m, &profiles);
                        store.restore(&other.snapshot()).expect("valid snapshot");
                    }
                    _ => {
                        store.corrupt_deterministic(seed, (seed % 5) as f64 / 4.0);
                    }
                }
                let now = store.snapshot();
                if store.generation() == generation {
                    prop_assert_eq!(&now, &snapshot);
                }
                generation = store.generation();
                snapshot = now;
            }
        }
    }
}
