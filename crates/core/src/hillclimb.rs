//! The hill-climbing performance model (§III-C of the paper).
//!
//! For every `(kind, shape)` key the profiler starts at one thread, measures,
//! increases the thread count by a stride `x`, and keeps climbing while the
//! measured time decreases. It does this twice — once with tile cache
//! sharing, once without (the paper: "we run the operation twice with two
//! training steps: one step with cache sharing between threads, and the
//! other without"). Predictions for untested thread counts come from linear
//! interpolation between the sampled points; thread counts beyond the last
//! sample are extrapolated with the slope of the last sampled segment (the
//! climb saw the curve start rising and stopped; the rise it observed is its
//! only information about the tail).
//!
//! Accuracy degrades as the stride grows (Table V): coarse strides skip the
//! optimum, stop early, and interpolate across the curve's steep left limb.

use crate::measure::{Measurer, OpCatalog};
use crate::plan::PerfModel;
use crate::profiler::ProfilerPool;
use nnrt_graph::{OpKey, OpKind, Shape};
use nnrt_manycore::SharingMode;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Hill-climbing profiler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HillClimbConfig {
    /// The stride `x` (the paper evaluates 2, 4, 8, 16; 4 is the default
    /// trade-off between accuracy and profiling steps).
    pub interval: u32,
    /// Maximum thread count to explore (68 = one per physical core).
    pub max_threads: u32,
    /// Cross-shape warm seeding: start the climb of an uncovered key at the
    /// fitted optimum of the nearest same-kind neighbor shape (minus one
    /// stride) instead of at 1 thread. Only curves fitted *before* the
    /// current fit seed it, so the result is independent of the order keys
    /// are climbed in — and therefore of the worker count.
    pub warm_seed: bool,
}

impl Default for HillClimbConfig {
    fn default() -> Self {
        HillClimbConfig {
            interval: 4,
            max_threads: 68,
            warm_seed: true,
        }
    }
}

/// The sampled time-vs-threads curve of one key under one sharing mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve {
    /// `(threads, measured seconds)`, strictly increasing in threads.
    pub samples: Vec<(u32, f64)>,
}

impl Curve {
    /// Linear interpolation between samples; clamps on the left, and
    /// extrapolates past the last sample with the final segment's slope
    /// (never below a tenth of the sampled minimum, to stay positive).
    pub fn interpolate(&self, threads: u32) -> Option<f64> {
        let s = &self.samples;
        if s.is_empty() {
            return None;
        }
        if threads <= s[0].0 {
            return Some(s[0].1);
        }
        if threads >= s[s.len() - 1].0 {
            let (p1, t1) = s[s.len() - 1];
            if threads == p1 || s.len() < 2 {
                return Some(t1);
            }
            let (p0, t0) = s[s.len() - 2];
            let slope = (t1 - t0) / (p1 - p0) as f64;
            let floor = 0.1 * self.best().map_or(t1, |(_, t)| t);
            return Some((t1 + slope * (threads - p1) as f64).max(floor));
        }
        let i = s.partition_point(|&(p, _)| p < threads);
        let (p0, t0) = s[i - 1];
        let (p1, t1) = s[i];
        if p0 == threads {
            return Some(t0);
        }
        let f = (threads - p0) as f64 / (p1 - p0) as f64;
        Some(t0 + f * (t1 - t0))
    }

    /// The sampled minimum.
    pub fn best(&self) -> Option<(u32, f64)> {
        self.samples
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    }
}

/// One profiled key's curve pair in exportable form — the unit a profile
/// store persists and a warm-started job imports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyProfile {
    /// Operation kind of the key.
    pub kind: OpKind,
    /// Input shape of the key.
    pub shape: Shape,
    /// Curve measured with tile-cache sharing (compact placement).
    pub compact: Curve,
    /// Curve measured without sharing (scatter placement).
    pub scatter: Curve,
}

impl KeyProfile {
    /// The `(kind, shape)` key these curves belong to.
    pub fn key(&self) -> OpKey {
        (self.kind, self.shape.clone())
    }
}

/// The fitted hill-climbing performance model.
#[derive(Debug, Clone, Default)]
pub struct HillClimbModel {
    curves: HashMap<OpKey, [Curve; 2]>, // [Compact, Scatter]
    /// Profiling cost: total standalone measurements taken.
    pub measurements: u64,
    /// Profiling cost: equivalent profiling training steps
    /// (the paper's `N <= C/x * 2`).
    pub profiling_steps: u32,
}

/// What a budgeted fit achieved: how many keys were newly profiled, and
/// which keys the budget forced to give up on (their climbs were truncated
/// before converging, so no curve was kept and the scheduler falls back to
/// the framework-default thread plan for them).
#[derive(Debug, Clone, Default)]
pub struct FitOutcome {
    /// Keys newly profiled to convergence.
    pub new_keys: usize,
    /// Keys whose climb exceeded the budget: degraded to the baseline plan.
    pub degraded: Vec<OpKey>,
    /// Keys whose climb was warm-seeded from an already-fitted neighbor
    /// shape of the same kind.
    pub seeded_keys: usize,
    /// Profiling steps the warm seeding skipped: grid points below the
    /// seeded window that an unseeded climb would have sampled on its way
    /// up from 1 thread. These steps were *not* charged against the
    /// profiling budget — seeding spends budget only on samples actually
    /// taken.
    pub steps_saved: u32,
    /// Per-key climb accounting, in canonical (sorted) key order — the
    /// merge order, so the list is byte-identical for every worker count.
    /// Observability layers turn these into `profile_climb` events.
    pub climbs: Vec<ClimbRecord>,
}

/// What one key's hill climb cost — one entry of [`FitOutcome::climbs`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClimbRecord {
    /// The operation key that was climbed.
    pub key: OpKey,
    /// Standalone measurements the key's two climbs took.
    pub measurements: u64,
    /// Longest climb across both modes, in samples.
    pub longest_climb: u32,
    /// Whether the climb started from a neighbor shape's optimum.
    pub seeded: bool,
    /// Grid samples skipped below the seeded window (0 when unseeded).
    pub steps_saved: u32,
    /// Whether the budget truncated the climb (curves discarded; the key
    /// runs on the framework-default plan).
    pub degraded: bool,
}

fn mode_index(mode: SharingMode) -> usize {
    match mode {
        SharingMode::Compact => 0,
        SharingMode::Scatter => 1,
    }
}

/// The result of climbing one key with its per-key forked measurer — the
/// unit of work a [`ProfilerPool`] worker produces and the merge step folds
/// back into the model in canonical key order.
struct KeyFit {
    /// `None` when a climb hit the sample cap before converging.
    curves: Option<[Curve; 2]>,
    /// Longest climb across both modes, in samples (paid even if discarded).
    longest_climb: u32,
    /// Standalone measurements this key's climbs took.
    measurements: u64,
    /// Grid samples skipped below the seeded window (0 when unseeded).
    steps_saved: u32,
    /// Whether the climb started from a neighbor's optimum.
    seeded: bool,
}

/// Largest grid point `1 + k·interval` that is `<= p`.
fn grid_at_or_below(p: u32, interval: u32) -> u32 {
    1 + ((p.saturating_sub(1)) / interval.max(1)) * interval.max(1)
}

/// L1-ish distance between shapes for neighbor selection: same-rank shapes
/// compare dimension-wise, different-rank shapes by element-count gap (and
/// always lose to a same-rank candidate).
fn shape_distance(a: &Shape, b: &Shape) -> (u8, u128) {
    if a.0.len() == b.0.len() {
        let d =
            a.0.iter()
                .zip(&b.0)
                .map(|(&x, &y)| x.abs_diff(y) as u128)
                .sum();
        (0, d)
    } else {
        let volume = |s: &Shape| s.0.iter().map(|&d| d as u128).product::<u128>();
        (1, volume(a).abs_diff(volume(b)))
    }
}

impl HillClimbModel {
    /// Climbs one sharing mode's curve starting at `start` (a point on the
    /// `1 + k·interval` grid; 1 = the unseeded legacy climb). The climb
    /// walks upward while the measured time decreases; a seeded climb whose
    /// very first upward step already rises also walks *downward* from the
    /// start, because the optimum then sits below the seed. Samples are
    /// returned sorted by thread count. The second value is `false` when
    /// the per-mode sample cap truncated the climb before it converged.
    fn climb_mode(
        measurer: &mut Measurer,
        profile: &nnrt_manycore::WorkProfile,
        reps: usize,
        cfg: HillClimbConfig,
        cap: u32,
        start: u32,
        mode: SharingMode,
    ) -> (Vec<(u32, f64)>, bool) {
        let mut samples: Vec<(u32, f64)> = Vec::new();
        let mut converged = true;
        let mut p = start;
        let start_time = measurer.measure_averaged(profile, p, mode, reps);
        let mut prev = start_time;
        samples.push((p, prev));
        loop {
            let next = p + cfg.interval;
            if next > cfg.max_threads {
                break;
            }
            if samples.len() as u32 >= cap {
                converged = false; // budget exhausted mid-climb
                break;
            }
            let t = measurer.measure_averaged(profile, next, mode, reps);
            samples.push((next, t));
            p = next;
            if t > prev {
                break; // the climb saw the curve rise: stop.
            }
            prev = t;
        }
        // A seeded climb that rose immediately overshot the optimum: the
        // minimum lies at or below the start, so descend until a rise (or
        // 1 thread) brackets it from the left.
        let min_at_start = samples
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
            .is_some_and(|&(q, _)| q == start);
        if converged && start > 1 && min_at_start {
            let mut q = start;
            let mut prev_down = start_time;
            loop {
                if q <= 1 {
                    break;
                }
                if samples.len() as u32 >= cap {
                    converged = false;
                    break;
                }
                let next = q - cfg.interval.min(q - 1); // grid-aligned; floors at 1
                let t = measurer.measure_averaged(profile, next, mode, reps);
                samples.push((next, t));
                q = next;
                if t > prev_down {
                    break;
                }
                prev_down = t;
            }
        }
        samples.sort_by_key(|&(q, _)| q);
        samples.dedup_by_key(|&mut (q, _)| q);
        (samples, converged)
    }

    /// Climbs one key's curve pair with its own forked measurer, taking at
    /// most `cap` samples per sharing mode. The curves are `None` when a
    /// climb hit the cap before converging (saw neither a rise nor the
    /// thread ceiling) — a truncated curve would interpolate across the
    /// optimum, so it is discarded rather than trusted. `seed_start` warm
    /// seeds the climb at a neighbor's optimum.
    fn climb_key(
        catalog: &OpCatalog,
        key: &OpKey,
        measurer: &mut Measurer,
        cfg: HillClimbConfig,
        cap: u32,
        seed_start: Option<u32>,
    ) -> KeyFit {
        let start = seed_start.unwrap_or(1).max(1);
        if cap == 0 {
            // No budget at all: degrade without measuring.
            return KeyFit {
                curves: None,
                longest_climb: 0,
                measurements: 0,
                steps_saved: 0,
                seeded: false,
            };
        }
        let profile = *catalog.profile_of_key(key).expect("key from catalog");
        // A profiling step observes every instance of the key, so a key
        // with many instances measures with much less noise.
        let reps = catalog.key_count(key).max(1);
        let mut pair: [Curve; 2] = [Curve { samples: vec![] }, Curve { samples: vec![] }];
        let mut longest_climb = 0u32;
        let mut converged = true;
        let mut steps_saved = 0u32;
        for mode in SharingMode::ALL {
            let (samples, ok) = Self::climb_mode(measurer, &profile, reps, cfg, cap, start, mode);
            longest_climb = longest_climb.max(samples.len() as u32);
            if ok && start > 1 {
                // Every grid point below the lowest sample is one an
                // unseeded climb would have measured on its way up.
                let lowest = samples.first().map(|&(q, _)| q).unwrap_or(1);
                steps_saved += (lowest - 1) / cfg.interval;
            }
            pair[mode_index(mode)] = Curve { samples };
            if !ok {
                converged = false;
                break; // don't spend more budget on a key we must discard
            }
        }
        KeyFit {
            curves: converged.then_some(pair),
            longest_climb,
            measurements: measurer.measurements_taken(),
            steps_saved: if converged { steps_saved } else { 0 },
            seeded: start > 1,
        }
    }

    /// Snapshot of the already-fitted curves, as `kind -> [(shape, best
    /// threads)]` sorted for deterministic neighbor selection. Taken once
    /// *before* a fit, so seeding never depends on the order keys are
    /// climbed in within that fit.
    fn seed_index(&self) -> HashMap<OpKind, Vec<(Shape, u32)>> {
        let mut index: HashMap<OpKind, Vec<(Shape, u32)>> = HashMap::new();
        for ((kind, shape), pair) in &self.curves {
            let best = pair
                .iter()
                .filter_map(Curve::best)
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));
            if let Some((threads, _)) = best {
                index
                    .entry(*kind)
                    .or_default()
                    .push((shape.clone(), threads));
            }
        }
        for entries in index.values_mut() {
            entries.sort();
        }
        index
    }

    /// Where a warm-seeded climb of `key` should start: one stride below
    /// the (grid-snapped) fitted optimum of the nearest same-kind neighbor
    /// shape. `None` when no neighbor exists or the seed would be the
    /// legacy start of 1 thread anyway.
    fn neighbor_start(
        index: &HashMap<OpKind, Vec<(Shape, u32)>>,
        key: &OpKey,
        cfg: HillClimbConfig,
    ) -> Option<u32> {
        let neighbors = index.get(&key.0)?;
        let (_, threads) = neighbors
            .iter()
            .min_by_key(|(shape, _)| (shape_distance(&key.1, shape), shape.clone()))?;
        let start = grid_at_or_below(*threads, cfg.interval)
            .saturating_sub(cfg.interval)
            .max(1)
            .min(grid_at_or_below(cfg.max_threads, cfg.interval));
        (start > 1).then_some(start)
    }

    /// Profiles every key of `catalog` with the hill-climbing search.
    pub fn fit(catalog: &OpCatalog, measurer: &mut Measurer, cfg: HillClimbConfig) -> Self {
        let mut model = HillClimbModel::default();
        model.fit_missing_budgeted(catalog, measurer, cfg, u32::MAX);
        model
    }

    /// Profiles only the keys of `catalog` the model does not yet cover,
    /// under a profiling budget of `budget_steps` simulated training steps.
    /// This is the warm-start path: a job whose keys were already measured
    /// (by an earlier job on the same machine) skips those climbs entirely,
    /// and `profiling_steps`/`measurements` grow only by the incremental
    /// cost. A profiling step measures one `(threads, mode)` point of every key concurrently, and each key needs
    /// two climbs (compact + scatter), so the budget caps every climb at
    /// `budget_steps / 2` samples. Keys whose climb is truncated by the cap
    /// before converging are *degraded*: their partial curves are discarded
    /// (they would interpolate across the optimum) and they are reported in
    /// [`FitOutcome::degraded`] so the caller can fall back to the
    /// framework-default thread plan for them. A budget of `0` (or `1`)
    /// degrades every uncovered key without taking a single measurement.
    pub fn fit_missing_budgeted(
        &mut self,
        catalog: &OpCatalog,
        measurer: &mut Measurer,
        cfg: HillClimbConfig,
        budget_steps: u32,
    ) -> FitOutcome {
        self.fit_missing_pooled(
            catalog,
            measurer,
            cfg,
            budget_steps,
            &ProfilerPool::serial(),
        )
    }

    /// Like [`HillClimbModel::fit_missing_budgeted`], but the independent
    /// per-key climbs are sharded across `pool`'s workers. Every key is
    /// measured with a measurer forked from `measurer`'s base seed and the
    /// key itself (`Measurer::fork_for_key`), and the results are merged
    /// in canonical (sorted) key order — so the fitted curves, the cost
    /// accounting, and everything downstream are **byte-identical for every
    /// worker count**, including the serial pool, which runs the climbs
    /// inline without spawning a single thread.
    pub fn fit_missing_pooled(
        &mut self,
        catalog: &OpCatalog,
        measurer: &mut Measurer,
        cfg: HillClimbConfig,
        budget_steps: u32,
        pool: &ProfilerPool,
    ) -> FitOutcome {
        let cap = budget_steps / 2;
        let todo: Vec<OpKey> = catalog
            .keys()
            .iter()
            .filter(|key| !self.curves.contains_key(*key))
            .cloned()
            .collect();
        // Seeds come from curves fitted *before* this call only (imports,
        // earlier fits) — never from keys of the same batch, which would
        // make the result depend on climb order and break determinism.
        let starts: Vec<Option<u32>> = if cfg.warm_seed {
            let index = self.seed_index();
            todo.iter()
                .map(|key| Self::neighbor_start(&index, key, cfg))
                .collect()
        } else {
            vec![None; todo.len()]
        };
        let base: &Measurer = measurer;
        let fits: Vec<KeyFit> = pool.run(todo.len(), |i| {
            let key = &todo[i];
            let mut fork = base.fork_for_key(key);
            Self::climb_key(catalog, key, &mut fork, cfg, cap, starts[i])
        });
        let mut longest_climb = 0u32;
        let mut taken = 0u64;
        let mut outcome = FitOutcome::default();
        for (key, fit) in todo.into_iter().zip(fits) {
            longest_climb = longest_climb.max(fit.longest_climb);
            taken += fit.measurements;
            outcome.steps_saved += fit.steps_saved;
            if fit.seeded {
                outcome.seeded_keys += 1;
            }
            outcome.climbs.push(ClimbRecord {
                key: key.clone(),
                measurements: fit.measurements,
                longest_climb: fit.longest_climb,
                seeded: fit.seeded,
                steps_saved: fit.steps_saved,
                degraded: fit.curves.is_none(),
            });
            match fit.curves {
                Some(pair) => {
                    self.curves.insert(key, pair);
                    outcome.new_keys += 1;
                }
                None => outcome.degraded.push(key),
            }
        }
        measurer.absorb(taken);
        self.measurements += taken;
        // One profiling step runs every op once at one (threads, mode): the
        // number of steps equals the longest climb, times two modes. Keys
        // climb concurrently within a step, so the incremental cost of this
        // fit is the longest *new* climb only (truncated climbs included —
        // their steps were paid even though their curves were discarded).
        // Warm-seeded climbs are shorter, so their savings show up here
        // automatically; `FitOutcome::steps_saved` reports them explicitly.
        self.profiling_steps += longest_climb * 2;
        outcome
    }

    /// Whether `key` already has a fitted curve pair.
    pub fn contains(&self, key: &OpKey) -> bool {
        self.curves.contains_key(key)
    }

    /// Exports every profiled key's curves, sorted by key (deterministic
    /// output for persistence and byte-identical snapshots).
    pub fn export(&self) -> Vec<KeyProfile> {
        let mut out: Vec<KeyProfile> = self
            .curves
            .iter()
            .map(|((kind, shape), pair)| KeyProfile {
                kind: *kind,
                shape: shape.clone(),
                compact: pair[0].clone(),
                scatter: pair[1].clone(),
            })
            .collect();
        out.sort_by_key(|a| a.key());
        out
    }

    /// Imports previously exported curves, overwriting any entry already
    /// present for the same key. Imported curves were paid for by whoever
    /// measured them: they add nothing to `measurements`/`profiling_steps`.
    pub fn import<'a>(&mut self, profiles: impl IntoIterator<Item = &'a KeyProfile>) {
        for p in profiles {
            self.curves
                .insert(p.key(), [p.compact.clone(), p.scatter.clone()]);
        }
    }

    /// The sampled curve for a key and mode, if profiled.
    pub fn curve(&self, key: &OpKey, mode: SharingMode) -> Option<&Curve> {
        self.curves.get(key).map(|pair| &pair[mode_index(mode)])
    }

    /// Number of profiled keys.
    pub fn len(&self) -> usize {
        self.curves.len()
    }

    /// Whether no key was profiled.
    pub fn is_empty(&self) -> bool {
        self.curves.is_empty()
    }

    /// The paper's Table V metric: "the average prediction accuracy for all
    /// operations". Per operation (key × sharing mode), accuracy is
    /// `1 − mean |ŷ−y|/y` over the *untested* thread counts within the
    /// curve's sampled range, clamped at 0 — the paper predicts untested
    /// cases "based on a linear interpolation between the execution times"
    /// of tested neighbours, so a coarse stride interpolates straight across
    /// the curve's steep left limb and over skipped optima, zeroing those
    /// operations' accuracies entirely (the x = 16 collapse). The returned
    /// value is the mean over operations.
    pub fn accuracy(&self, catalog: &OpCatalog, measurer: &Measurer, max_threads: u32) -> f64 {
        let mut per_op_acc = 0.0;
        let mut ops = 0u64;
        for key in catalog.keys() {
            let Some(pair) = self.curves.get(key) else {
                continue;
            };
            let profile = *catalog.profile_of_key(key).expect("key from catalog");
            for mode in SharingMode::ALL {
                let curve = &pair[mode_index(mode)];
                let sampled: std::collections::HashSet<u32> =
                    curve.samples.iter().map(|&(p, _)| p).collect();
                let hi = curve
                    .samples
                    .last()
                    .map(|&(p, _)| p)
                    .unwrap_or(0)
                    .min(max_threads);
                let mut total = 0.0;
                let mut n = 0u64;
                for p in 1..=hi {
                    if sampled.contains(&p) {
                        continue;
                    }
                    let Some(pred) = curve.interpolate(p) else {
                        continue;
                    };
                    let truth = measurer.true_time(&profile, p, mode);
                    total += ((pred - truth) / truth).abs();
                    n += 1;
                }
                if n > 0 {
                    per_op_acc += (1.0 - total / n as f64).max(0.0);
                    ops += 1;
                }
            }
        }
        if ops == 0 {
            return 0.0;
        }
        per_op_acc / ops as f64
    }
}

impl PerfModel for HillClimbModel {
    fn predict(&self, key: &OpKey, threads: u32, mode: SharingMode) -> Option<f64> {
        self.curve(key, mode)?.interpolate(threads)
    }

    fn best(&self, key: &OpKey) -> Option<(u32, SharingMode, f64)> {
        let pair = self.curves.get(key)?;
        let mut best: Option<(u32, SharingMode, f64)> = None;
        for mode in SharingMode::ALL {
            if let Some((p, t)) = pair[mode_index(mode)].best() {
                if best.is_none_or(|b| t < b.2) {
                    best = Some((p, mode, t));
                }
            }
        }
        best
    }

    fn candidates(&self, key: &OpKey, n: usize) -> Vec<(u32, SharingMode, f64)> {
        let Some(pair) = self.curves.get(key) else {
            return Vec::new();
        };
        let mut all: Vec<(u32, SharingMode, f64)> = Vec::new();
        for mode in SharingMode::ALL {
            for &(p, t) in &pair[mode_index(mode)].samples {
                all.push((p, mode, t));
            }
        }
        all.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
        // Distinct thread counts only: a candidate set of {26-compact,
        // 26-scatter, 30-compact} offers less scheduling freedom than
        // {26, 22, 30}. The first `n` distinct counts stay in front.
        let mut kept = 0;
        for i in 0..all.len() {
            if kept == n {
                break;
            }
            if all[..kept].iter().all(|c| c.0 != all[i].0) {
                all.swap(kept, i);
                kept += 1;
            }
        }
        all.truncate(kept);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_graph::{DataflowGraph, OpAux, OpInstance, OpKind, Shape};
    use nnrt_manycore::{KnlCostModel, NoiseModel};

    fn conv_catalog() -> OpCatalog {
        let mut g = DataflowGraph::new();
        g.add(
            OpInstance::with_aux(
                OpKind::Conv2DBackpropFilter,
                Shape::nhwc(32, 8, 8, 384),
                OpAux::conv(3, 1, 384),
            ),
            &[],
        );
        OpCatalog::new(&g)
    }

    fn fit(interval: u32, noise: NoiseModel) -> (HillClimbModel, Measurer, OpCatalog) {
        let catalog = conv_catalog();
        let mut m = Measurer::new(KnlCostModel::knl(), noise, 123);
        let model = HillClimbModel::fit(
            &catalog,
            &mut m,
            HillClimbConfig {
                interval,
                max_threads: 68,
                warm_seed: true,
            },
        );
        (model, m, catalog)
    }

    #[test]
    fn finds_the_convex_minimum() {
        let (model, _, catalog) = fit(2, NoiseModel::none());
        let key = catalog.keys()[0].clone();
        let (p, _, _) = model.best(&key).unwrap();
        // Ground truth optimum (paper: 26 for this op and shape).
        let prof = *catalog.profile_of_key(&key).unwrap();
        let (true_p, _, _) = nnrt_manycore::CostModel::optimal(&KnlCostModel::knl(), &prof, 68);
        assert!(
            (p as i64 - true_p as i64).abs() <= 2,
            "hill climb found {p}, truth {true_p}"
        );
    }

    #[test]
    fn fine_stride_is_highly_accurate() {
        let (model, m, catalog) = fit(2, NoiseModel::none());
        let acc = model.accuracy(&catalog, &m, 68);
        assert!(acc > 0.93, "x=2 accuracy should be ~95%+, got {acc:.3}");
    }

    #[test]
    fn accuracy_degrades_with_stride() {
        let (m2, meas2, cat) = fit(2, NoiseModel::none());
        let (m16, meas16, _) = fit(16, NoiseModel::none());
        let a2 = m2.accuracy(&cat, &meas2, 68);
        let a16 = m16.accuracy(&cat, &meas16, 68);
        assert!(
            a2 > a16 + 0.05,
            "stride 16 must be clearly worse: x2={a2:.3} x16={a16:.3}"
        );
    }

    #[test]
    fn coarse_stride_uses_fewer_measurements() {
        let (m2, ..) = fit(2, NoiseModel::none());
        let (m16, ..) = fit(16, NoiseModel::none());
        assert!(m16.measurements < m2.measurements);
        assert!(m16.profiling_steps < m2.profiling_steps);
    }

    #[test]
    fn interpolation_brackets_and_clamps() {
        let c = Curve {
            samples: vec![(1, 10.0), (5, 2.0), (9, 4.0)],
        };
        assert_eq!(c.interpolate(1), Some(10.0));
        assert_eq!(c.interpolate(3), Some(6.0));
        assert_eq!(c.interpolate(5), Some(2.0));
        assert_eq!(c.interpolate(7), Some(3.0));
        // Extrapolated with the last segment's slope (0.5/thread).
        assert_eq!(c.interpolate(13), Some(6.0));
        assert_eq!(c.best(), Some((5, 2.0)));
    }

    #[test]
    fn candidates_are_sorted_and_distinct() {
        let (model, _, catalog) = fit(4, NoiseModel::none());
        let key = catalog.keys()[0].clone();
        let cands = model.candidates(&key, 3);
        assert_eq!(cands.len(), 3);
        assert!(cands[0].2 <= cands[1].2 && cands[1].2 <= cands[2].2);
        let mut ps: Vec<u32> = cands.iter().map(|c| c.0).collect();
        ps.dedup();
        assert_eq!(ps.len(), 3, "thread counts must be distinct: {ps:?}");
    }

    #[test]
    fn export_import_roundtrips_and_is_sorted() {
        let (model, _, catalog) = fit(4, NoiseModel::none());
        let exported = model.export();
        assert_eq!(exported.len(), model.len());
        let keys: Vec<_> = exported.iter().map(|p| p.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "export must be key-sorted");

        let mut warm = HillClimbModel::default();
        warm.import(&exported);
        let key = catalog.keys()[0].clone();
        assert!(warm.contains(&key));
        assert_eq!(
            warm.curve(&key, SharingMode::Compact),
            model.curve(&key, SharingMode::Compact)
        );
        assert_eq!(warm.profiling_steps, 0, "imports cost nothing");
        assert_eq!(warm.measurements, 0);
    }

    #[test]
    fn fit_missing_skips_known_keys() {
        let catalog = conv_catalog();
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 123);
        let cfg = HillClimbConfig {
            interval: 4,
            max_threads: 68,
            warm_seed: true,
        };
        let cold = HillClimbModel::fit(&catalog, &mut m, cfg);

        // Fully warm: nothing to climb, zero incremental cost.
        let mut warm = HillClimbModel::default();
        warm.import(&cold.export());
        let mut m2 = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 123);
        let new_keys = warm
            .fit_missing_budgeted(&catalog, &mut m2, cfg, u32::MAX)
            .new_keys;
        assert_eq!(new_keys, 0);
        assert_eq!(warm.profiling_steps, 0);
        assert_eq!(m2.measurements_taken(), 0);

        // Cold fit through fit_missing_budgeted matches plain fit.
        let mut m3 = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 123);
        let mut scratch = HillClimbModel::default();
        let fresh = scratch
            .fit_missing_budgeted(&catalog, &mut m3, cfg, u32::MAX)
            .new_keys;
        assert_eq!(fresh, catalog.keys().len());
        assert_eq!(scratch.profiling_steps, cold.profiling_steps);
        assert_eq!(scratch.measurements, cold.measurements);
    }

    #[test]
    fn zero_budget_degrades_every_key_without_measuring() {
        let catalog = conv_catalog();
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 123);
        let mut model = HillClimbModel::default();
        let out = model.fit_missing_budgeted(&catalog, &mut m, HillClimbConfig::default(), 0);
        assert_eq!(out.new_keys, 0);
        assert_eq!(out.degraded.len(), catalog.keys().len());
        assert_eq!(m.measurements_taken(), 0, "no budget, no measurements");
        assert_eq!(model.profiling_steps, 0);
        assert!(model.is_empty());
    }

    #[test]
    fn tight_budget_truncates_and_discards_the_climb() {
        let catalog = conv_catalog();
        let key = catalog.keys()[0].clone();
        // The x=2 climb for this key converges after well over 4 samples
        // (the optimum sits near 26 threads), so a budget of 8 steps
        // (4 samples per climb) must truncate it.
        let cfg = HillClimbConfig {
            interval: 2,
            max_threads: 68,
            warm_seed: true,
        };
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 123);
        let mut model = HillClimbModel::default();
        let out = model.fit_missing_budgeted(&catalog, &mut m, cfg, 8);
        assert_eq!(out.degraded, vec![key.clone()]);
        assert!(!model.contains(&key), "truncated curves are discarded");
        assert!(
            model.profiling_steps <= 8,
            "cost stays within budget, got {}",
            model.profiling_steps
        );
        assert!(m.measurements_taken() > 0, "the attempt was paid for");
    }

    #[test]
    fn generous_budget_matches_unbudgeted_fit() {
        let catalog = conv_catalog();
        let cfg = HillClimbConfig::default();
        let mut m1 = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 123);
        let plain = HillClimbModel::fit(&catalog, &mut m1, cfg);

        let mut m2 = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 123);
        let mut budgeted = HillClimbModel::default();
        let out = budgeted.fit_missing_budgeted(&catalog, &mut m2, cfg, 1_000);
        assert!(out.degraded.is_empty());
        assert_eq!(out.new_keys, catalog.keys().len());
        assert_eq!(budgeted.profiling_steps, plain.profiling_steps);
        assert_eq!(budgeted.measurements, plain.measurements);
        let key = catalog.keys()[0].clone();
        assert_eq!(
            budgeted.curve(&key, SharingMode::Compact),
            plain.curve(&key, SharingMode::Compact)
        );
    }

    fn multi_catalog() -> OpCatalog {
        let mut g = DataflowGraph::new();
        let a = g.add_op(OpKind::Conv2D, Shape::nhwc(8, 16, 16, 32), &[]);
        let b = g.add_op(OpKind::Relu, Shape::nhwc(8, 16, 16, 32), &[a]);
        let c = g.add_op(OpKind::Conv2D, Shape::nhwc(8, 8, 8, 64), &[b]);
        let _ = g.add_op(OpKind::Relu, Shape::nhwc(8, 8, 8, 64), &[c]);
        OpCatalog::new(&g)
    }

    #[test]
    fn pooled_fit_is_byte_identical_for_any_worker_count() {
        let catalog = multi_catalog();
        let cfg = HillClimbConfig::default();
        let mut m0 = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 99);
        let mut serial = HillClimbModel::default();
        let base =
            serial.fit_missing_pooled(&catalog, &mut m0, cfg, 1_000, &ProfilerPool::serial());
        for threads in [2usize, 4, 8] {
            let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 99);
            let mut model = HillClimbModel::default();
            let out =
                model.fit_missing_pooled(&catalog, &mut m, cfg, 1_000, &ProfilerPool::new(threads));
            assert_eq!(model.export(), serial.export(), "{threads} workers");
            assert_eq!(model.profiling_steps, serial.profiling_steps);
            assert_eq!(model.measurements, serial.measurements);
            assert_eq!(out.new_keys, base.new_keys);
            assert_eq!(out.degraded, base.degraded);
            assert_eq!(m.measurements_taken(), m0.measurements_taken());
        }
    }

    fn neighbor_catalog() -> OpCatalog {
        let mut g = DataflowGraph::new();
        g.add(
            OpInstance::with_aux(
                OpKind::Conv2DBackpropFilter,
                Shape::nhwc(32, 8, 8, 352),
                OpAux::conv(3, 1, 352),
            ),
            &[],
        );
        OpCatalog::new(&g)
    }

    #[test]
    fn warm_seeding_saves_steps_and_finds_the_same_optimum() {
        let cfg = HillClimbConfig::default();

        // Seeded: fit shape A cold, then its neighbor B warm-seeded.
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 123);
        let mut model = HillClimbModel::fit(&conv_catalog(), &mut m, cfg);
        let before = m.measurements_taken();
        let seeded = model.fit_missing_budgeted(&neighbor_catalog(), &mut m, cfg, 1_000);
        let seeded_cost = m.measurements_taken() - before;
        assert_eq!(seeded.seeded_keys, 1);
        assert_eq!(seeded.new_keys, 1);
        assert!(seeded.steps_saved > 0, "the seed must skip grid points");

        // Unseeded baseline over the same warm model.
        let mut m2 = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 123);
        let mut model2 = HillClimbModel::fit(&conv_catalog(), &mut m2, cfg);
        let before2 = m2.measurements_taken();
        let unseeded = model2.fit_missing_budgeted(
            &neighbor_catalog(),
            &mut m2,
            HillClimbConfig {
                warm_seed: false,
                ..cfg
            },
            1_000,
        );
        let unseeded_cost = m2.measurements_taken() - before2;
        assert_eq!(unseeded.seeded_keys, 0);
        assert_eq!(unseeded.steps_saved, 0);
        assert!(
            seeded_cost < unseeded_cost,
            "seeding must cut measurements: {seeded_cost} vs {unseeded_cost}"
        );

        // Both find the same optimum for the new key.
        let key = neighbor_catalog().keys()[0].clone();
        let (p_seeded, ..) = model.best(&key).unwrap();
        let (p_unseeded, ..) = model2.best(&key).unwrap();
        assert_eq!(p_seeded, p_unseeded, "seeding must not move the optimum");
    }

    #[test]
    fn warm_seeding_respects_a_starved_budget() {
        let cfg = HillClimbConfig::default();
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::none(), 123);
        let mut model = HillClimbModel::fit(&conv_catalog(), &mut m, cfg);
        let steps_before = model.profiling_steps;

        // Budget 0: degrade without measuring, seeded or not — identically.
        let before = m.measurements_taken();
        let out = model.fit_missing_budgeted(&neighbor_catalog(), &mut m, cfg, 0);
        assert_eq!(out.new_keys, 0);
        assert_eq!(out.degraded.len(), 1);
        assert_eq!(out.steps_saved, 0);
        assert_eq!(m.measurements_taken(), before);
        assert_eq!(model.profiling_steps, steps_before);

        // A tiny nonzero budget is honored by the seeded climb too.
        let out = model.fit_missing_budgeted(&neighbor_catalog(), &mut m, cfg, 4);
        assert!(
            model.profiling_steps - steps_before <= 4,
            "seeded climb overspent: {}",
            model.profiling_steps - steps_before
        );
        assert_eq!(out.steps_saved, 0, "truncated climbs save nothing");
    }

    #[test]
    fn unknown_key_predicts_none() {
        let (model, ..) = fit(4, NoiseModel::none());
        let other = (OpKind::Mul, Shape::vec1(5));
        assert!(model.predict(&other, 4, SharingMode::Compact).is_none());
        assert!(model.best(&other).is_none());
        assert!(model.candidates(&other, 3).is_empty());
    }
}
