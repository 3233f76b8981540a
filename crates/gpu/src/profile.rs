//! The 2-D launch-config hill climb — `nnrt-sched`'s profiler extended to
//! the GPU's two intra-op parallelism dimensions (§VII-B).
//!
//! For every `(kind, shape)` key the profiler climbs the threads-per-block
//! ladder at the default block count, then the block-count ladder at the
//! winning threads-per-block — the paper's observation that the two optima
//! are independent, which keeps the search `O(2n)` instead of `O(n²)`. The
//! sampled points of the two axis walks are stored as a [`KeyProfile`]
//! curve pair (`compact` = threads/block axis, `scatter` = #blocks axis), so
//! GPU profiles flow through the shared `nnrt_serve::ProfileStore` schema
//! unchanged — they are simply keyed under a GPU
//! [`MachineSignature`](nnrt_manycore::MachineSignature), which the
//! domain-tagged hash guarantees can never collide with a KNL one.
//!
//! Determinism contract: each key's measurement stream is seeded by
//! [`per_key_seed`] — a pure function of the fleet seed and the key — so the
//! fitted curves are independent of worker count and climb order, exactly
//! like the CPU profiler behind [`ProfilerPool`].

use crate::kernels::kernel_for;
use crate::model::{GpuModel, LaunchConfig};
use crate::tuner::{blocks_ladder, climb_axis, tpb_ladder};
use nnrt_graph::OpKey;
use nnrt_manycore::NoiseModel;
use nnrt_sched::{per_key_seed, Curve, KeyProfile, OpCatalog, ProfilerPool};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Noisy samples averaged per grid point (a profiling step observes an op
/// several times; averaging keeps short-kernel jitter from derailing the
/// climb).
const SAMPLES: u32 = 4;

/// Configuration of the GPU profiling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuProfileConfig {
    /// Measurement noise (same duration-dependent model as the CPU path).
    pub noise: NoiseModel,
    /// Base seed; each key's stream is forked from it deterministically.
    pub seed: u64,
}

impl Default for GpuProfileConfig {
    fn default() -> Self {
        GpuProfileConfig {
            noise: NoiseModel::default(),
            seed: 0xC0DE,
        }
    }
}

/// The fitted 2-D launch-config model of one graph: a curve pair per key.
#[derive(Debug, Clone, Default)]
pub struct GpuProfile {
    /// `[threads/block axis, #blocks axis]` per key.
    curves: HashMap<OpKey, [Curve; 2]>,
    /// Standalone measurements taken (grid points × samples).
    pub measurements: u64,
    /// Equivalent profiling training steps paid (one per grid point, as
    /// each point launches the kernel standalone).
    pub profiling_steps: u32,
    degraded: Vec<OpKey>,
    new_keys: usize,
    warm_keys: usize,
}

impl GpuProfile {
    /// Fits every key of `catalog`'s graph that `warm` does not already
    /// cover, sharding the independent per-key climbs across `pool`. Keys
    /// are processed in canonical (sorted) order against `budget`
    /// equivalent profiling steps: the fit keeps a strict prefix and
    /// degrades the rest to the TF-default launch config, mirroring the CPU
    /// budget semantics.
    pub fn fit_missing_pooled(
        model: &GpuModel,
        catalog: &OpCatalog,
        config: GpuProfileConfig,
        warm: &[KeyProfile],
        budget: u32,
        pool: ProfilerPool,
    ) -> Self {
        // The catalog's keys are sorted, so a warm key is found by bisection.
        let keys = catalog.keys();
        let mut profile = GpuProfile::default();
        for kp in warm {
            let key = kp.key();
            if keys.binary_search(&key).is_ok()
                && !kp.compact.samples.is_empty()
                && !kp.scatter.samples.is_empty()
            {
                profile
                    .curves
                    .insert(key, [kp.compact.clone(), kp.scatter.clone()]);
            }
        }
        profile.warm_keys = profile.curves.len();

        let missing: Vec<OpKey> = keys
            .iter()
            .filter(|k| !profile.curves.contains_key(*k))
            .cloned()
            .collect();
        // Independent per-key climbs, deterministic at any worker count:
        // the task list is the canonically-sorted missing keys, each task a
        // pure function of (config.seed, key).
        let fits: Vec<([Curve; 2], u32)> = pool.run(missing.len(), |i| {
            let key = &missing[i];
            let work = catalog
                .profile_of_key(key)
                .expect("missing key came from the catalog");
            let kernel = kernel_for(key.0, work);
            let mut rng = ChaCha8Rng::seed_from_u64(per_key_seed(config.seed, key));
            let mut evals = 0u32;
            let mut measure = |cfg: LaunchConfig| {
                evals += 1;
                let solo = model.time(&kernel, cfg);
                let mut total = 0.0;
                for _ in 0..SAMPLES {
                    total += config.noise.observe(solo, &mut rng);
                }
                total / SAMPLES as f64
            };
            let default = LaunchConfig::tf_default();
            let mut tpb_samples = Vec::new();
            let (best_tpb, _, _) = climb_axis(&tpb_ladder(), |tpb| {
                let t = measure(LaunchConfig {
                    threads_per_block: tpb,
                    num_blocks: default.num_blocks,
                });
                tpb_samples.push((tpb, t));
                t
            });
            let mut block_samples = Vec::new();
            climb_axis(&blocks_ladder(model.spec().sms), |nb| {
                let t = measure(LaunchConfig {
                    threads_per_block: best_tpb,
                    num_blocks: nb,
                });
                block_samples.push((nb, t));
                t
            });
            (
                [
                    Curve {
                        samples: tpb_samples,
                    },
                    Curve {
                        samples: block_samples,
                    },
                ],
                evals,
            )
        });

        // Merge in canonical order under the budget: a strict prefix of the
        // missing keys is kept, so the outcome is independent of which
        // worker climbed what.
        let mut spent = 0u32;
        let mut over_budget = false;
        for (key, (curves, evals)) in missing.into_iter().zip(fits) {
            if over_budget || spent.saturating_add(evals) > budget {
                over_budget = true;
                profile.degraded.push(key);
                continue;
            }
            spent += evals;
            profile.measurements += evals as u64 * SAMPLES as u64;
            profile.new_keys += 1;
            profile.curves.insert(key, curves);
        }
        profile.profiling_steps = spent;
        profile
    }

    /// Whether `key` has a fitted (or imported) curve pair.
    pub fn contains(&self, key: &OpKey) -> bool {
        self.curves.contains_key(key)
    }

    /// The launch configuration the fitted curves recommend for `key`
    /// (sampled minimum of each axis), or the TF default for unfitted /
    /// degraded keys.
    pub fn config_for(&self, key: &OpKey) -> LaunchConfig {
        match self.curves.get(key) {
            Some([tpb, blocks]) => {
                let default = LaunchConfig::tf_default();
                LaunchConfig {
                    threads_per_block: tpb.best().map_or(default.threads_per_block, |(x, _)| x),
                    num_blocks: blocks.best().map_or(default.num_blocks, |(x, _)| x),
                }
            }
            None => LaunchConfig::tf_default(),
        }
    }

    /// Keys the profiling budget degraded to the default launch config.
    pub fn degraded_keys(&self) -> &[OpKey] {
        &self.degraded
    }

    /// Keys newly climbed by this fit.
    pub fn new_keys(&self) -> usize {
        self.new_keys
    }

    /// Keys imported from the warm store instead of climbed.
    pub fn warm_keys(&self) -> usize {
        self.warm_keys
    }

    /// Every curve pair in exportable, store-ready form, sorted by key.
    pub fn export(&self) -> Vec<KeyProfile> {
        let mut keys: Vec<&OpKey> = self.curves.keys().collect();
        keys.sort();
        keys.into_iter()
            .map(|key| {
                let [compact, scatter] = &self.curves[key];
                KeyProfile {
                    kind: key.0,
                    shape: key.1.clone(),
                    compact: compact.clone(),
                    scatter: scatter.clone(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::tune_exhaustive;
    use nnrt_graph::{DataflowGraph, OpAux, OpInstance, OpKind, Shape};

    fn small_graph() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let conv = g.add(
            OpInstance::with_aux(
                OpKind::Conv2D,
                Shape::nhwc(8, 17, 17, 64),
                OpAux::conv(3, 1, 64),
            ),
            &[],
        );
        let bias = g.add(
            OpInstance::new(OpKind::BiasAdd, Shape::nhwc(8, 17, 17, 64)),
            &[conv],
        );
        g.add(
            OpInstance::new(OpKind::MaxPool, Shape::nhwc(8, 17, 17, 64)),
            &[bias],
        );
        g
    }

    #[test]
    fn fit_is_byte_identical_at_any_worker_count() {
        let model = GpuModel::p100();
        let g = small_graph();
        let cfg = GpuProfileConfig::default();
        let serial = GpuProfile::fit_missing_pooled(
            &model,
            &OpCatalog::new(&g),
            cfg,
            &[],
            u32::MAX,
            ProfilerPool::serial(),
        );
        let pooled = GpuProfile::fit_missing_pooled(
            &model,
            &OpCatalog::new(&g),
            cfg,
            &[],
            u32::MAX,
            ProfilerPool::new(4),
        );
        assert_eq!(serial.export(), pooled.export());
        assert_eq!(serial.profiling_steps, pooled.profiling_steps);
        assert_eq!(serial.measurements, pooled.measurements);
    }

    #[test]
    fn warm_keys_skip_their_climbs() {
        let model = GpuModel::p100();
        let g = small_graph();
        let cfg = GpuProfileConfig::default();
        let cold = GpuProfile::fit_missing_pooled(
            &model,
            &OpCatalog::new(&g),
            cfg,
            &[],
            u32::MAX,
            ProfilerPool::serial(),
        );
        let warm = GpuProfile::fit_missing_pooled(
            &model,
            &OpCatalog::new(&g),
            cfg,
            &cold.export(),
            u32::MAX,
            ProfilerPool::serial(),
        );
        assert_eq!(warm.profiling_steps, 0);
        assert_eq!(warm.new_keys(), 0);
        assert_eq!(warm.warm_keys(), 3);
        assert_eq!(warm.export(), cold.export());
    }

    #[test]
    fn budget_degrades_a_strict_suffix() {
        let model = GpuModel::p100();
        let g = small_graph();
        let cfg = GpuProfileConfig::default();
        let fit = GpuProfile::fit_missing_pooled(
            &model,
            &OpCatalog::new(&g),
            cfg,
            &[],
            10,
            ProfilerPool::serial(),
        );
        assert!(
            !fit.degraded_keys().is_empty(),
            "a 10-step budget cannot cover three 2-D climbs"
        );
        for key in fit.degraded_keys() {
            assert_eq!(fit.config_for(key), LaunchConfig::tf_default());
        }
        assert!(fit.profiling_steps <= 10);
    }

    #[test]
    fn fitted_configs_beat_or_match_the_default() {
        let model = GpuModel::p100();
        let g = small_graph();
        // Noiseless fit: the recommendation must never lose to the default,
        // and the two independent axis climbs must land near the exhaustive
        // grid optimum at a fraction of its evaluations (the paper's O(2n)
        // versus O(n^2) argument).
        let cfg = GpuProfileConfig {
            noise: NoiseModel::none(),
            ..GpuProfileConfig::default()
        };
        let fit = GpuProfile::fit_missing_pooled(
            &model,
            &OpCatalog::new(&g),
            cfg,
            &[],
            u32::MAX,
            ProfilerPool::serial(),
        );
        let catalog = OpCatalog::new(&g);
        for key in catalog.keys() {
            let kernel = kernel_for(key.0, catalog.profile_of_key(key).unwrap());
            let tuned = model.time(&kernel, fit.config_for(key));
            let default = model.time(&kernel, LaunchConfig::tf_default());
            assert!(
                tuned <= default * 1.0001,
                "{key:?}: tuned {tuned:.3e} vs default {default:.3e}"
            );
            let best = tune_exhaustive(&model, &kernel).secs;
            assert!(
                tuned <= best * 1.08,
                "{key:?}: climbed {tuned:.3e} vs exhaustive {best:.3e}"
            );
        }
        let grid = (tpb_ladder().len() * blocks_ladder(model.spec().sms).len()) as u32;
        let keys = catalog.keys().len() as u32;
        assert!(
            fit.profiling_steps * 3 < keys * grid,
            "the climbs must probe far fewer configs than the grid: {} vs {}",
            fit.profiling_steps,
            keys * grid
        );
    }
}
