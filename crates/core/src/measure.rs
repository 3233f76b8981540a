//! The dynamic-profiling harness.
//!
//! During the first few training steps the runtime runs operations standalone
//! (serially, to avoid interference — §III-B "we run the operations in serial
//! ... to ensure accuracy of feature collection") and measures their
//! execution time under chosen thread counts and affinities. On the simulated
//! machine a "measurement" is the cost model's solo time perturbed by the
//! duration-dependent [`NoiseModel`].

use nnrt_graph::{op_key, DataflowGraph, NodeId, OpAux, OpKey, OpKind, Shape};
use nnrt_manycore::{CostModel, KnlCostModel, NoiseModel, SharingMode, WorkProfile};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Per-graph cache of work profiles, indexed by node, by distinct operation
/// and by op key (a binary search of the sorted keys).
///
/// A graph repeats operations (an LSTM unrolls one cell hundreds of
/// times), so the catalog also numbers its *distinct operations* — equal
/// kind, input shape and attributes — in first-appearance order: nodes
/// running the same operation get the same profile and the same scheduling
/// answers, which the step scheduler derives once per operation. Build the
/// catalog once per graph and hand it to whatever needs it; a placement
/// builds one.
#[derive(Debug, Clone)]
pub struct OpCatalog {
    /// Per node: its operation's index in `ops`.
    op_of: Vec<u32>,
    /// Per distinct operation: its profile and its key's index in `keys`.
    ops: Vec<(WorkProfile, u32)>,
    /// The distinct keys, sorted.
    keys: Vec<OpKey>,
    /// Per key, by its index in `keys`: the index in `ops` of the first
    /// operation with that key, and the number of nodes with that key.
    per_key: Vec<(u32, usize)>,
}

impl OpCatalog {
    /// Builds the catalog for `graph`.
    pub fn new(graph: &DataflowGraph) -> Self {
        let mut op_of = Vec::with_capacity(graph.len());
        // Each distinct operation's first node and instance count.
        let mut first: Vec<(NodeId, usize)> = Vec::new();
        let mut seen: HashMap<(OpKind, &Shape, OpAux), u32> = HashMap::new();
        for (node, op) in graph.iter() {
            let next = first.len() as u32;
            let index = *seen.entry((op.kind, &op.shape, op.aux)).or_insert(next);
            if index == next {
                first.push((node, 0));
            }
            first[index as usize].1 += 1;
            op_of.push(index);
        }
        let mut keys: Vec<OpKey> = first
            .iter()
            .map(|&(node, _)| op_key(graph.op(node).kind, &graph.op(node).shape))
            .collect();
        keys.sort();
        keys.dedup();
        let mut per_key = vec![(0, 0); keys.len()];
        let ops = first
            .iter()
            .enumerate()
            .map(|(index, &(node, instances))| {
                let op = graph.op(node);
                let key = keys
                    .binary_search_by(|k| (k.0, &k.1).cmp(&(op.kind, &op.shape)))
                    .expect("every operation's key is cataloged");
                let (first_op, count) = &mut per_key[key];
                if *count == 0 {
                    *first_op = index as u32;
                }
                *count += instances;
                let profile = nnrt_graph::work_profile(op.kind, &op.shape, &op.aux);
                (profile, key as u32)
            })
            .collect();
        OpCatalog {
            op_of,
            ops,
            keys,
            per_key,
        }
    }

    /// Index of `key` in [`OpCatalog::keys`].
    fn key_index(&self, key: &OpKey) -> Option<usize> {
        self.keys.binary_search(key).ok()
    }

    /// Number of nodes of the cataloged graph.
    pub fn num_nodes(&self) -> usize {
        self.op_of.len()
    }

    /// Number of distinct operations (kind, input shape and attributes).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Index of `node`'s operation, in `0..num_ops()`.
    pub fn op_index(&self, node: NodeId) -> usize {
        self.op_of[node.0 as usize] as usize
    }

    /// Profile of the operation with index `op`.
    pub fn op_profile(&self, op: usize) -> &WorkProfile {
        &self.ops[op].0
    }

    /// Key of the operation with index `op`.
    pub fn op_key(&self, op: usize) -> &OpKey {
        &self.keys[self.op_key_index(op)]
    }

    /// Index in [`OpCatalog::keys`] of the key of the operation with index
    /// `op`.
    pub(crate) fn op_key_index(&self, op: usize) -> usize {
        self.ops[op].1 as usize
    }

    /// Number of instances of `key` in the graph (0 if absent). One
    /// profiling step observes every instance, so a key with many instances
    /// yields an effectively averaged, lower-noise measurement.
    pub(crate) fn key_count(&self, key: &OpKey) -> usize {
        self.key_index(key).map_or(0, |k| self.per_key[k].1)
    }

    /// Profile of a node.
    pub fn profile(&self, node: NodeId) -> &WorkProfile {
        self.op_profile(self.op_index(node))
    }

    /// Profile of an op key (any instance with that kind and shape).
    pub fn profile_of_key(&self, key: &OpKey) -> Option<&WorkProfile> {
        let first_op = self.per_key[self.key_index(key)?].0;
        Some(self.op_profile(first_op as usize))
    }

    /// All distinct keys, sorted (deterministic iteration order).
    pub fn keys(&self) -> &[OpKey] {
        &self.keys
    }
}

/// Stable 64-bit fingerprint of an op key: FNV-1a over the kind's display
/// name and the shape's dimensions. Used to derive per-key measurement
/// seeds, so it must never depend on process-local state (hash randomization,
/// enum discriminant order, allocation addresses).
fn key_fingerprint(key: &OpKey) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for b in key.0.to_string().bytes() {
        eat(b);
    }
    eat(0xFF); // separator: kind name and dims must not concatenate ambiguously
    for &dim in &key.1 .0 {
        for b in (dim as u64).to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// Derives the measurement seed of one op key from a base seed — the recipe
/// `Measurer::fork_for_key` uses, exported so other backends (the GPU
/// profiler) produce curves that are a pure function of `(base, key)` and
/// therefore independent of worker count and climb order.
pub fn per_key_seed(base: u64, key: &OpKey) -> u64 {
    mix64(base ^ key_fingerprint(key))
}

/// SplitMix64 finalizer, decorrelating the per-key seeds derived from a
/// base seed and a key fingerprint.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Measures standalone operation runs on the simulated machine.
///
/// Owns the ground-truth cost model, the measurement noise and a seeded RNG;
/// everything downstream (profilers, schedulers) sees only noisy
/// measurements, as a real runtime would.
#[derive(Debug, Clone)]
pub struct Measurer {
    cost: KnlCostModel,
    noise: NoiseModel,
    rng: ChaCha8Rng,
    seed: u64,
    measurements: u64,
}

impl Measurer {
    /// A measurer over `cost` with `noise`, seeded deterministically.
    pub fn new(cost: KnlCostModel, noise: NoiseModel, seed: u64) -> Self {
        Measurer {
            cost,
            noise,
            rng: ChaCha8Rng::seed_from_u64(seed),
            seed,
            measurements: 0,
        }
    }

    /// A fresh measurer whose noise stream is a pure function of this
    /// measurer's base seed and `key` — *not* of how many measurements were
    /// taken before. Profilers fork one measurer per op key, so a key's
    /// measured curve is identical no matter which worker climbs it, in what
    /// order, or alongside which other keys. That independence is what makes
    /// the parallel profiling pipeline byte-identical to the sequential one.
    pub(crate) fn fork_for_key(&self, key: &OpKey) -> Measurer {
        Measurer::new(self.cost.clone(), self.noise, per_key_seed(self.seed, key))
    }

    /// Folds `n` measurements taken by forked measurers back into this
    /// measurer's cost accounting (the forks' counters die with them).
    pub(crate) fn absorb(&mut self, n: u64) {
        self.measurements += n;
    }

    /// One noisy standalone measurement.
    pub fn measure(&mut self, profile: &WorkProfile, threads: u32, mode: SharingMode) -> f64 {
        self.measurements += 1;
        let t = self.cost.solo_time(profile, threads, mode);
        self.noise.observe(t, &mut self.rng)
    }

    /// The mean of `samples` noisy measurements — what a profiling step
    /// observes for an op key that has `samples` instances in the graph
    /// (each instance is one observation of the same configuration).
    pub(crate) fn measure_averaged(
        &mut self,
        profile: &WorkProfile,
        threads: u32,
        mode: SharingMode,
        samples: usize,
    ) -> f64 {
        let samples = samples.clamp(1, 32);
        let mut total = 0.0;
        for _ in 0..samples {
            total += self.measure(profile, threads, mode);
        }
        total / samples as f64
    }

    /// The exact (noise-free) time — ground truth for accuracy evaluation.
    pub fn true_time(&self, profile: &WorkProfile, threads: u32, mode: SharingMode) -> f64 {
        self.cost.solo_time(profile, threads, mode)
    }

    /// Number of measurements taken so far (profiling cost accounting).
    pub fn measurements_taken(&self) -> u64 {
        self.measurements
    }

    /// Maximum threads the machine supports with one context per core.
    pub fn max_threads(&self) -> u32 {
        self.cost.topology().num_cores()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_graph::{OpKind, Shape};

    fn small_graph() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let a = g.add_op(OpKind::Conv2D, Shape::nhwc(8, 16, 16, 32), &[]);
        let _b = g.add_op(OpKind::Relu, Shape::nhwc(8, 16, 16, 32), &[a]);
        let _c = g.add_op(OpKind::Conv2D, Shape::nhwc(8, 16, 16, 32), &[a]);
        g
    }

    #[test]
    fn catalog_dedups_keys() {
        let g = small_graph();
        let cat = OpCatalog::new(&g);
        assert_eq!(cat.keys().len(), 2, "two Conv2D instances share one key");
        assert!(cat
            .profile_of_key(&(OpKind::Conv2D, Shape::nhwc(8, 16, 16, 32)))
            .is_some());
        assert!(cat.profile_of_key(&(OpKind::Mul, Shape::vec1(1))).is_none());
    }

    #[test]
    fn catalog_numbers_each_distinct_operation_once() {
        let mut g = small_graph();
        // Same kind and shape as node 0 but other attributes: same key,
        // different operation.
        g.add(
            nnrt_graph::OpInstance::with_aux(
                OpKind::Conv2D,
                Shape::nhwc(8, 16, 16, 32),
                OpAux::conv(1, 1, 64),
            ),
            &[],
        );
        let cat = OpCatalog::new(&g);
        assert_eq!(cat.num_nodes(), g.len());
        assert_eq!(cat.num_ops(), 3);
        let ops: Vec<usize> = (0..g.len())
            .map(|i| cat.op_index(NodeId(i as u32)))
            .collect();
        assert_eq!(ops, vec![0, 1, 0, 2], "first-appearance order");
        for (node, op) in g.iter() {
            let index = cat.op_index(node);
            assert_eq!(cat.op_key(index), &op_key(op.kind, &op.shape));
            assert_eq!(
                cat.profile(node),
                &nnrt_graph::work_profile(op.kind, &op.shape, &op.aux)
            );
        }
        let conv = (OpKind::Conv2D, Shape::nhwc(8, 16, 16, 32));
        assert_eq!(cat.key_count(&conv), 3, "every instance of the key counts");
        assert_eq!(cat.profile_of_key(&conv), Some(cat.profile(NodeId(0))));
    }

    #[test]
    fn measurement_is_noisy_but_near_truth() {
        let cat = OpCatalog::new(&small_graph());
        let prof = *cat.profile(NodeId(0));
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 42);
        let truth = m.true_time(&prof, 16, SharingMode::Compact);
        let mut sum = 0.0;
        for _ in 0..200 {
            sum += m.measure(&prof, 16, SharingMode::Compact);
        }
        let mean = sum / 200.0;
        assert!((mean - truth).abs() / truth < 0.05);
        assert_eq!(m.measurements_taken(), 200);
    }

    #[test]
    fn noiseless_measurer_is_exact() {
        let cat = OpCatalog::new(&small_graph());
        let prof = *cat.profile(NodeId(0));
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 0);
        assert_eq!(
            m.measure(&prof, 8, SharingMode::Scatter),
            m.true_time(&prof, 8, SharingMode::Scatter)
        );
    }

    #[test]
    fn forked_measurers_are_order_and_history_independent() {
        let cat = OpCatalog::new(&small_graph());
        let prof = *cat.profile(NodeId(0));
        let key = cat.keys()[0].clone();
        let other = cat.keys()[1].clone();

        // Fork after different amounts of parent history: same stream.
        let mut a = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 7);
        let b = a.fork_for_key(&key);
        for _ in 0..5 {
            a.measure(&prof, 4, SharingMode::Compact);
        }
        let c = a.fork_for_key(&key);
        let (mut b, mut c) = (b, c);
        for p in 1..10 {
            assert_eq!(
                b.measure(&prof, p, SharingMode::Compact),
                c.measure(&prof, p, SharingMode::Compact),
                "a key's fork must not depend on the parent's history"
            );
        }

        // Different keys get decorrelated streams.
        let mut d = a.fork_for_key(&other);
        let mut e = a.fork_for_key(&key);
        let x = d.measure(&prof, 4, SharingMode::Compact);
        let y = e.measure(&prof, 4, SharingMode::Compact);
        assert_ne!(x, y, "distinct keys must draw distinct noise");

        // Fork counters fold back explicitly, not implicitly.
        let taken_before = a.measurements_taken();
        a.absorb(d.measurements_taken());
        assert_eq!(a.measurements_taken(), taken_before + 1);
    }

    #[test]
    fn determinism_under_seed() {
        let cat = OpCatalog::new(&small_graph());
        let prof = *cat.profile(NodeId(0));
        let mut a = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 7);
        let mut b = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 7);
        for p in 1..20 {
            assert_eq!(
                a.measure(&prof, p, SharingMode::Compact),
                b.measure(&prof, p, SharingMode::Compact)
            );
        }
    }
}
