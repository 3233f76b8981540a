//! The discrete-event GPU stream runtime.
//!
//! Executes a whole training-step dataflow graph on a modelled device with
//! `n` CUDA streams. Each stream runs one kernel at a time; a ready node is
//! dispatched to an idle stream, and cross-stream dependencies are events: a
//! node launches only after every predecessor — on any stream — has
//! signalled completion. While `k` kernels overlap, each proceeds at rate
//! `1 / max(1, Σ demand)` — the same contention rule as
//! [`GpuModel::corun_span`], generalized from two kernels to a time-varying
//! running set. Per-kernel launch overhead is part of the kernel's solo time
//! ([`GpuModel::time`] charges it), so deep graphs pay it on every node.
//!
//! Three scheduling strategies mirror the paper's CPU strategy ladder:
//!
//! * [`GpuStrategy::Serial`] — one stream, the TensorFlow-on-GPU baseline.
//! * [`GpuStrategy::Static`] — a fixed stream count, greedily filled. This
//!   is Table VII's setup: two streams, no admission control.
//! * [`GpuStrategy::CorunControlled`] — the S3/S4 analog: the stream count
//!   is *picked from the fitted curves* (enough streams to cover the mean
//!   kernel demand, capped), and a kernel is admitted next to running ones
//!   only while the summed demand stays under a budget — co-run pairs are
//!   chosen so concurrency never degrades into thrashing.

use crate::kernels::kernel_for;
use crate::model::{GpuModel, GpuSpec, LaunchConfig};
use crate::ops::GpuKernel;
use crate::profile::{GpuProfile, GpuProfileConfig};
use nnrt_graph::{DataflowGraph, NodeId, OpKey};
use nnrt_sched::exec::NodeTiming;
use nnrt_sched::{OpCatalog, ProfilerPool};

/// How ready kernels are packed onto streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpuStrategy {
    /// One stream, in-order — the serial baseline.
    Serial,
    /// A fixed number of streams, greedily filled with ready kernels.
    Static {
        /// Stream count (Table VII uses 2).
        streams: u32,
    },
    /// Concurrency-controlled co-running: stream count derived from the
    /// fitted demand profile, admission gated by a demand budget.
    CorunControlled {
        /// Upper bound on the derived stream count.
        max_streams: u32,
        /// Summed-demand admission budget; mild oversubscription (>1) is
        /// allowed, as streams overlap transfer and compute phases.
        demand_budget: f64,
    },
}

impl Default for GpuStrategy {
    fn default() -> Self {
        GpuStrategy::CorunControlled {
            max_streams: 4,
            demand_budget: 1.15,
        }
    }
}

/// GPU runtime configuration. Kernels launch with the configs the
/// profiling pass fitted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuRuntimeConfig {
    /// The stream scheduling strategy.
    pub strategy: GpuStrategy,
    /// The profiling pass (noise, seed).
    pub profile: GpuProfileConfig,
}

/// One step's execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuStepReport {
    /// Makespan of the step, seconds.
    pub total_secs: f64,
    /// Sum of solo kernel times — what one stream would take.
    pub serial_secs: f64,
    /// Per-node timings, in node order (`timings[i].node == i`).
    pub timings: Vec<NodeTiming>,
    /// Stream each node ran on, parallel to `timings`.
    pub streams: Vec<u32>,
    /// Streams the schedule actually engaged.
    pub streams_used: u32,
    /// Time-averaged number of co-running kernels.
    pub avg_corunning: f64,
}

impl GpuStepReport {
    /// Per-stream lane summary: `(stream, ops)` pairs sorted by stream id
    /// — how many of the step's kernels each engaged lane ran.
    /// Deterministic (derived from the deterministic schedule), so
    /// observability layers can emit one `stream_lane` event per lane.
    pub fn lane_summary(&self) -> Vec<(u32, u32)> {
        let mut per_lane: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        for &s in &self.streams {
            *per_lane.entry(s).or_insert(0) += 1;
        }
        per_lane.into_iter().collect()
    }
}

/// A kernel + launch config pair for the low-level simulator.
#[derive(Debug, Clone, Copy)]
pub struct StreamLaunch {
    /// The kernel.
    pub kernel: GpuKernel,
    /// Its launch configuration.
    pub config: LaunchConfig,
}

/// Raw outcome of [`simulate_streams`]: `(start, finish, stream)` per
/// launch, in input order, plus the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Per-launch `(start, finish, stream)`.
    pub spans: Vec<(f64, f64, u32)>,
    /// Makespan, seconds.
    pub makespan: f64,
}

/// Runs `launches` (with `deps[i]` naming indices that must finish before
/// launch `i` may start) on `streams` streams under `demand_budget`.
///
/// Dispatch is deterministic: whenever a stream idles, the lowest-index
/// ready launch whose demand fits the budget is taken (the first launch on
/// an idle device always fits — progress is guaranteed on any DAG).
pub fn simulate_streams(
    model: &GpuModel,
    launches: &[StreamLaunch],
    deps: &[Vec<usize>],
    streams: u32,
    demand_budget: f64,
) -> StreamOutcome {
    assert_eq!(launches.len(), deps.len(), "one dep list per launch");
    let n = launches.len();
    let solo: Vec<f64> = launches
        .iter()
        .map(|l| model.time(&l.kernel, l.config))
        .collect();
    let demand: Vec<f64> = launches
        .iter()
        .map(|l| model.demand(&l.kernel, l.config))
        .collect();

    let mut indeg: Vec<usize> = deps.iter().map(Vec::len).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (d, preds) in deps.iter().enumerate() {
        for &p in preds {
            succs[p].push(d);
        }
    }
    // Ready list kept sorted ascending; dispatch takes the lowest index
    // first (insertion order is topological in `DataflowGraph`).
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();

    struct Running {
        idx: usize,
        remaining: f64, // solo-seconds of work left
    }
    let mut lanes: Vec<Option<Running>> = (0..streams.max(1)).map(|_| None).collect();
    let mut spans = vec![(0.0, 0.0, 0u32); n];
    let mut t = 0.0f64;
    let mut done = 0usize;

    while done < n {
        // Dispatch to idle lanes, lowest lane first.
        let mut total_demand: f64 = lanes.iter().flatten().map(|r| demand[r.idx]).sum();
        let mut running = lanes.iter().flatten().count();
        for (lane_idx, slot) in lanes.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let Some(pos) = ready
                .iter()
                .position(|&i| running == 0 || total_demand + demand[i] <= demand_budget)
            else {
                break;
            };
            let idx = ready.remove(pos);
            total_demand += demand[idx];
            running += 1;
            spans[idx].0 = t;
            spans[idx].2 = lane_idx as u32;
            *slot = Some(Running {
                idx,
                remaining: solo[idx],
            });
        }
        debug_assert!(running > 0, "DAG with pending work must have a ready node");

        // Advance to the next completion under the current contention.
        let contention = total_demand.max(1.0);
        let dt = lanes
            .iter()
            .flatten()
            .map(|r| r.remaining * contention)
            .fold(f64::INFINITY, f64::min);
        t += dt;
        for lane in lanes.iter_mut() {
            let Some(r) = lane else { continue };
            r.remaining -= dt / contention;
            if r.remaining <= 1e-15 * solo[r.idx].max(1e-30) {
                spans[r.idx].1 = t;
                done += 1;
                let finished = r.idx;
                *lane = None;
                for &d in &succs[finished] {
                    indeg[d] -= 1;
                    if indeg[d] == 0 {
                        let at = ready.partition_point(|&x| x < d);
                        ready.insert(at, d);
                    }
                }
            }
        }
    }

    StreamOutcome { spans, makespan: t }
}

/// The GPU training runtime: profile (warm-started from a shared store),
/// then execute steps under a stream strategy — the device-side counterpart
/// of `nnrt_sched::Runtime`.
#[derive(Debug, Clone)]
pub struct GpuRuntime {
    model: GpuModel,
    config: GpuRuntimeConfig,
    profile: GpuProfile,
    launches: Vec<StreamLaunch>,
}

impl GpuRuntime {
    /// Profiles `graph` on the device described by `spec`, importing curves
    /// from `warm` (store lookups under the device's signature) and climbing
    /// the rest through `pool` under `budget` equivalent profiling steps.
    pub fn prepare_warm_pooled(
        graph: &DataflowGraph,
        spec: GpuSpec,
        config: GpuRuntimeConfig,
        warm: &[nnrt_sched::KeyProfile],
        budget: u32,
        pool: ProfilerPool,
    ) -> Self {
        Self::prepare_from_catalog(&OpCatalog::new(graph), spec, config, warm, budget, pool)
    }

    /// [`GpuRuntime::prepare_warm_pooled`] over a catalog the caller
    /// already built for the graph; [`GpuRuntime::run_step`] then takes
    /// that graph.
    pub fn prepare_from_catalog(
        catalog: &OpCatalog,
        spec: GpuSpec,
        config: GpuRuntimeConfig,
        warm: &[nnrt_sched::KeyProfile],
        budget: u32,
        pool: ProfilerPool,
    ) -> Self {
        let model = GpuModel::new(spec);
        let profile =
            GpuProfile::fit_missing_pooled(&model, catalog, config.profile, warm, budget, pool);
        let per_op: Vec<StreamLaunch> = (0..catalog.num_ops())
            .map(|op| {
                let key = catalog.op_key(op);
                StreamLaunch {
                    kernel: kernel_for(key.0, catalog.op_profile(op)),
                    config: profile.config_for(key),
                }
            })
            .collect();
        let launches = (0..catalog.num_nodes())
            .map(|node| per_op[catalog.op_index(NodeId(node as u32))])
            .collect();
        GpuRuntime {
            model,
            config,
            profile,
            launches,
        }
    }

    /// Cold prepare with a serial pool and no budget (tests, small tools).
    pub fn prepare(graph: &DataflowGraph, spec: GpuSpec, config: GpuRuntimeConfig) -> Self {
        Self::prepare_warm_pooled(graph, spec, config, &[], u32::MAX, ProfilerPool::serial())
    }

    /// The fitted profile (curves, profiling cost, degraded keys).
    pub fn profile(&self) -> &GpuProfile {
        &self.profile
    }

    /// The occupancy model this runtime schedules against.
    pub fn model(&self) -> &GpuModel {
        &self.model
    }

    /// Per-node launch decisions: the fitted config, or the TF default for
    /// an unfitted key.
    pub fn launches(&self) -> &[StreamLaunch] {
        &self.launches
    }

    /// The stream count the strategy resolves to for this graph: fixed for
    /// `Serial`/`Static`, and derived from the fitted mean demand for
    /// `CorunControlled` (enough streams that their summed demand covers
    /// the budget, capped at `max_streams`).
    pub fn stream_count(&self) -> u32 {
        match self.config.strategy {
            GpuStrategy::Serial => 1,
            GpuStrategy::Static { streams } => streams.max(1),
            GpuStrategy::CorunControlled {
                max_streams,
                demand_budget,
            } => {
                if self.launches.is_empty() {
                    return 1;
                }
                let mean: f64 = self
                    .launches
                    .iter()
                    .map(|l| self.model.demand(&l.kernel, l.config))
                    .sum::<f64>()
                    / self.launches.len() as f64;
                ((demand_budget / mean.max(1e-6)).floor() as u32).clamp(1, max_streams.max(1))
            }
        }
    }

    /// Executes one training step and reports per-node stream timings.
    pub fn run_step(&self, graph: &DataflowGraph) -> GpuStepReport {
        assert_eq!(
            graph.len(),
            self.launches.len(),
            "run_step graph must match the prepared graph"
        );
        let deps: Vec<Vec<usize>> = (0..graph.len())
            .map(|i| {
                graph
                    .preds(NodeId(i as u32))
                    .iter()
                    .map(|p| p.0 as usize)
                    .collect()
            })
            .collect();
        let budget = match self.config.strategy {
            GpuStrategy::CorunControlled { demand_budget, .. } => demand_budget,
            _ => f64::INFINITY,
        };
        let outcome = simulate_streams(
            &self.model,
            &self.launches,
            &deps,
            self.stream_count(),
            budget,
        );
        let serial_secs: f64 = self
            .launches
            .iter()
            .map(|l| self.model.time(&l.kernel, l.config))
            .sum();
        let mut timings = Vec::with_capacity(graph.len());
        let mut streams = Vec::with_capacity(graph.len());
        let mut busy = 0.0f64;
        for (i, &(start, finish, stream)) in outcome.spans.iter().enumerate() {
            let solo = self
                .model
                .time(&self.launches[i].kernel, self.launches[i].config);
            timings.push(NodeTiming {
                node: i as u32,
                start,
                finish,
                predicted: solo,
                nominal: solo,
            });
            streams.push(stream);
            busy += finish - start;
        }
        GpuStepReport {
            total_secs: outcome.makespan,
            serial_secs,
            streams_used: streams.iter().copied().max().map_or(0, |s| s + 1),
            avg_corunning: if outcome.makespan > 0.0 {
                busy / outcome.makespan
            } else {
                0.0
            },
            timings,
            streams,
        }
    }

    /// Keys the profiling budget degraded to default launch configs.
    pub fn degraded_keys(&self) -> &[OpKey] {
        self.profile.degraded_keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{gpu_op, GpuOpKind};
    use nnrt_graph::{OpAux, OpInstance, OpKind, Shape};
    use nnrt_manycore::NoiseModel;

    fn noiseless() -> GpuRuntimeConfig {
        GpuRuntimeConfig {
            profile: GpuProfileConfig {
                noise: NoiseModel::none(),
                ..GpuProfileConfig::default()
            },
            ..GpuRuntimeConfig::default()
        }
    }

    fn launch(kind: GpuOpKind) -> StreamLaunch {
        StreamLaunch {
            kernel: gpu_op(kind),
            config: LaunchConfig::tf_default(),
        }
    }

    /// A small training-ish DAG: conv → {bias, pool} → matmul join.
    fn diamond() -> DataflowGraph {
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
        let pool = g.add(
            OpInstance::new(OpKind::MaxPool, Shape::nhwc(8, 17, 17, 64)),
            &[conv],
        );
        g.add(
            OpInstance::new(OpKind::Relu, Shape::nhwc(8, 17, 17, 64)),
            &[bias, pool],
        );
        g
    }

    #[test]
    fn serial_strategy_matches_the_solo_sum() {
        let g = diamond();
        let rt = GpuRuntime::prepare(
            &g,
            GpuSpec::p100(),
            GpuRuntimeConfig {
                strategy: GpuStrategy::Serial,
                ..noiseless()
            },
        );
        let report = rt.run_step(&g);
        assert_eq!(report.streams_used, 1);
        assert!(
            (report.total_secs - report.serial_secs).abs() < 1e-9 * report.serial_secs,
            "one stream must serialize: {} vs {}",
            report.total_secs,
            report.serial_secs
        );
    }

    #[test]
    fn two_identical_kernels_corun_like_the_pairwise_model() {
        // The discrete-event sim generalizes `corun_span`; on its own
        // two-kernel special case they must agree.
        let model = GpuModel::p100();
        for kind in GpuOpKind::ALL {
            let l = launch(kind);
            let outcome = simulate_streams(&model, &[l, l], &[vec![], vec![]], 2, f64::INFINITY);
            let span = model.corun_span((&l.kernel, l.config), (&l.kernel, l.config));
            assert!(
                (outcome.makespan - span).abs() < 1e-9 * span,
                "{kind:?}: sim {:.3e} vs corun_span {:.3e}",
                outcome.makespan,
                span
            );
        }
    }

    #[test]
    fn cross_stream_dependencies_are_event_ordered() {
        let g = diamond();
        let rt = GpuRuntime::prepare(
            &g,
            GpuSpec::p100(),
            GpuRuntimeConfig {
                strategy: GpuStrategy::Static { streams: 3 },
                ..noiseless()
            },
        );
        let report = rt.run_step(&g);
        // Every edge is an event wait: the successor starts only after the
        // predecessor finished, regardless of stream placement.
        for (id, _) in g.iter() {
            for p in g.preds(id) {
                assert!(
                    report.timings[p.0 as usize].finish
                        <= report.timings[id.0 as usize].start + 1e-12,
                    "edge {p:?}->{id:?} violated"
                );
            }
        }
        // A stream runs one kernel at a time: same-lane spans never overlap.
        for a in 0..report.timings.len() {
            for b in (a + 1)..report.timings.len() {
                if report.streams[a] != report.streams[b] {
                    continue;
                }
                let (ta, tb) = (&report.timings[a], &report.timings[b]);
                assert!(
                    ta.finish <= tb.start + 1e-12 || tb.finish <= ta.start + 1e-12,
                    "stream {} ran nodes {a} and {b} concurrently",
                    report.streams[a]
                );
            }
        }
        // The two independent middle nodes actually overlapped.
        assert!(report.streams_used >= 2);
        assert!(report.total_secs < report.serial_secs);
    }

    #[test]
    fn admission_control_respects_the_demand_budget() {
        let model = GpuModel::p100();
        let launches: Vec<StreamLaunch> = (0..8).map(|_| launch(GpuOpKind::BiasAdd)).collect();
        let deps = vec![vec![]; launches.len()];
        let budget = 1.15;
        let outcome = simulate_streams(&model, &launches, &deps, 4, budget);
        // At every kernel start, the co-running demand sum must fit the
        // budget (unless it runs alone).
        for (i, &(start, _, _)) in outcome.spans.iter().enumerate() {
            let total: f64 = outcome
                .spans
                .iter()
                .enumerate()
                .filter(|&(_, &(s, f, _))| s <= start && start < f)
                .map(|(j, _)| model.demand(&launches[j].kernel, launches[j].config))
                .sum();
            let solo = model.demand(&launches[i].kernel, launches[i].config);
            assert!(
                total <= budget + 1e-9 || (total - solo).abs() < 1e-12,
                "launch {i} admitted at demand {total:.3}"
            );
        }
    }

    #[test]
    fn controlled_strategy_derives_its_stream_count_from_the_curves() {
        let g = diamond();
        let rt = GpuRuntime::prepare(&g, GpuSpec::p100(), noiseless());
        let n = rt.stream_count();
        assert!(
            (1..=4).contains(&n),
            "derived stream count {n} out of range"
        );

        let serial = GpuRuntime::prepare(
            &g,
            GpuSpec::p100(),
            GpuRuntimeConfig {
                strategy: GpuStrategy::Serial,
                ..noiseless()
            },
        );
        assert_eq!(serial.stream_count(), 1);
        let fixed = GpuRuntime::prepare(
            &g,
            GpuSpec::p100(),
            GpuRuntimeConfig {
                strategy: GpuStrategy::Static { streams: 3 },
                ..noiseless()
            },
        );
        assert_eq!(fixed.stream_count(), 3);
    }

    #[test]
    fn whole_model_step_is_deterministic_and_faster_than_serial() {
        // End-to-end: a real model graph through profiling + the stream sim.
        let spec = nnrt_models::inception_v3(4);
        let rt = GpuRuntime::prepare(&spec.graph, GpuSpec::p100(), noiseless());
        let a = rt.run_step(&spec.graph);
        let b = rt.run_step(&spec.graph);
        assert_eq!(
            a, b,
            "run_step must be a pure function of the prepared state"
        );
        assert!(
            a.total_secs < a.serial_secs,
            "inception's parallel branches must co-run: {} vs {}",
            a.total_secs,
            a.serial_secs
        );
        assert!(a.avg_corunning > 1.0);
    }

    #[test]
    fn stream_trace_is_well_formed() {
        // Satellite: chrome trace of a stream schedule — one lane per
        // stream, events ordered by the cross-stream dependencies.
        let g = diamond();
        let rt = GpuRuntime::prepare(
            &g,
            GpuSpec::p100(),
            GpuRuntimeConfig {
                strategy: GpuStrategy::Static { streams: 3 },
                ..noiseless()
            },
        );
        let report = rt.run_step(&g);
        let json = nnrt_sched::export_lane_chrome_trace(&g, &report.timings, &report.streams);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().expect("event array");
        assert_eq!(events.len(), g.len());
        for e in events {
            assert_eq!(e["ph"], "X");
            assert_eq!(e["pid"], 1);
            let tid = e["tid"].as_u64().expect("tid");
            let node = e["args"]["node"].as_u64().expect("node id") as usize;
            assert_eq!(tid, report.streams[node] as u64 + 1, "tid must be stream+1");
            assert!(e["ts"].as_f64().is_some() && e["dur"].as_f64().is_some());
        }
        // Dependency order survives the µs rounding in the trace.
        let ts_of = |node: usize| -> (f64, f64) {
            let e = events
                .iter()
                .find(|e| e["args"]["node"].as_u64() == Some(node as u64))
                .expect("node present");
            (e["ts"].as_f64().unwrap(), e["dur"].as_f64().unwrap())
        };
        for (id, _) in g.iter() {
            for p in g.preds(id) {
                let (pt, pd) = ts_of(p.0 as usize);
                let (ct, _) = ts_of(id.0 as usize);
                assert!(
                    pt + pd <= ct + 1.0,
                    "trace violates edge {p:?}->{id:?} beyond 1µs rounding"
                );
            }
        }
    }
}
