//! Discrete-event co-run engine.
//!
//! Jobs (operation instances with a nominal solo duration) are launched onto
//! the machine; while several run together the engine slows each one down
//! according to two interference mechanisms:
//!
//! * **SMT core sharing** — when contexts of different jobs reside on the
//!   same physical core they contend for issue capacity
//!   ([`KnlParams::core_share_ratio`]): each context demands slots in
//!   proportion to its compute-boundness, the core supplies its SMT yield
//!   minus a cross-job cache-thrash term. Two cache-hungry convolutions
//!   barely exceed solo throughput together (Table III's 3% hyper-threading
//!   gain), while a memory-stalled op rides a busy core's spare context
//!   almost for free (Strategy 4's premise).
//! * **Memory-bandwidth and mesh contention** — jobs' MCDRAM demands add up,
//!   and core-disjoint co-runners slosh each other's tiles through the mesh,
//!   escalating when three or more run at once.
//!
//! The caller (an executor in `nnrt-sched`) decides *what* to launch, with
//! how many threads and where; the engine decides *how long* everything takes
//! and in what order completions happen.

use crate::cost::KnlParams;
use crate::error::MachineError;
use crate::placement::{CoreMap, Placement, PlacementRequest};
use crate::topology::Topology;
use crate::workload::WorkProfile;
use serde::{Deserialize, Serialize};

/// Engine-assigned job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// What happened at a trace point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The job was launched.
    Start,
    /// The job completed.
    Finish,
}

/// One entry of the engine's event trace (drives the paper's Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineEvent {
    /// Simulated time of the event, seconds.
    pub time: f64,
    /// Start or finish.
    pub kind: EventKind,
    /// The job involved.
    pub job: JobId,
    /// Caller-supplied tag (e.g. the dataflow node id).
    pub tag: u64,
    /// Number of jobs running *after* the event took effect — the paper's
    /// "number of co-running operations whenever an event happens".
    pub corunning: u32,
}

/// Completion record returned by [`Engine::advance_next`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The finished job.
    pub job: JobId,
    /// Caller-supplied tag.
    pub tag: u64,
    /// Launch time, seconds.
    pub start: f64,
    /// Completion time, seconds.
    pub finish: f64,
    /// The contexts the job held.
    pub placement: Placement,
    /// Nominal (solo) duration the job was launched with.
    pub nominal: f64,
}

#[derive(Debug, Clone)]
struct Running {
    id: u64,
    tag: u64,
    profile: WorkProfile,
    placement: Placement,
    nominal: f64,
    /// Solo-seconds of work left.
    remaining: f64,
    /// Current progress rate in solo-seconds per simulated second (<= 1).
    rate: f64,
    started: f64,
    /// Memory-bandwidth demand: `mem_intensity` scaled by the share of
    /// physical cores the job holds.
    demand: f64,
    /// Cache/mesh footprint: `cache_pressure` scaled the same way.
    footprint: f64,
    /// Hardware contexts the job holds across its cores.
    contexts: f64,
}

/// The discrete-event co-run engine.
#[derive(Debug, Clone)]
pub struct Engine {
    params: KnlParams,
    map: CoreMap,
    /// Running jobs in id (launch) order.
    jobs: Vec<Running>,
    /// The cores each running job holds, `mask_words` words per job,
    /// parallel to `jobs`: bit `c % 64` of word `c / 64` is set when the
    /// job holds core `c`.
    core_masks: Vec<u64>,
    mask_words: usize,
    /// Per physical core, the `(job id, contexts)` of every job holding a
    /// context there, in id order: core `c`'s are the first `occupants[c]`
    /// of the `slots` entries from `c * slots`.
    residents: Vec<(u64, u32)>,
    occupants: Vec<usize>,
    /// Jobs one core can hold: one per hardware context, and at least two,
    /// since a hyper-thread rider joins a core holding one context.
    slots: usize,
    /// Cores with two or more jobs among their residents.
    shared_cores: usize,
    /// Scratch for [`Engine::recompute_rates`], parallel to `jobs`: each
    /// job's context-weighted sum of per-core issue ratios.
    smt_ratio: Vec<f64>,
    /// Scratch for [`Engine::recompute_rates`]: one shared core's residents
    /// as [`KnlParams::core_share_ratio`] takes them, and each resident of
    /// a run of like cores as `(index in jobs, addition to its ratio sum
    /// per core)`.
    core_residents: Vec<(f64, f64, u32)>,
    core_shares: Vec<(usize, f64)>,
    now: f64,
    next_id: u64,
    trace: Vec<EngineEvent>,
    record_trace: bool,
}

impl Engine {
    /// A fresh engine over `topo` with interference constants from `params`.
    pub fn new(topo: Topology, params: KnlParams) -> Self {
        let cores = topo.num_cores() as usize;
        let slots = (topo.smt_per_core as usize).max(2);
        Engine {
            params,
            map: CoreMap::new(topo),
            jobs: Vec::new(),
            core_masks: Vec::new(),
            mask_words: cores.div_ceil(64),
            residents: vec![(0, 0); cores * slots],
            occupants: vec![0; cores],
            slots,
            shared_cores: 0,
            smt_ratio: Vec::new(),
            core_residents: Vec::new(),
            core_shares: Vec::new(),
            now: 0.0,
            next_id: 0,
            trace: Vec::new(),
            record_trace: false,
        }
    }

    /// Enables event-trace recording (off by default; traces of a full
    /// training step can hold tens of thousands of events).
    pub fn record_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        self.map.topology()
    }

    /// Interference constants in use.
    pub fn params(&self) -> &KnlParams {
        &self.params
    }

    /// Number of completely idle cores.
    pub fn free_cores(&self) -> u32 {
        self.map.free_cores()
    }

    /// Busy cores that can still take a hyper-thread context (Strategy 4).
    pub fn ht_capacity(&self) -> u32 {
        self.map.ht_capacity()
    }

    /// Hardware contexts not currently held by any job.
    pub fn free_contexts(&self) -> u32 {
        self.map.free_contexts()
    }

    /// Physical-core footprint of the widest running job (0 when idle) —
    /// Strategy 4 triggers only when some op spans the whole machine.
    pub fn widest_running_cores(&self) -> u32 {
        self.jobs
            .iter()
            .map(|r| r.placement.num_cores())
            .max()
            .unwrap_or(0)
    }

    /// The widest running job's `(tag, cores, profile)`, if any.
    pub fn widest_running(&self) -> Option<(u64, u32, WorkProfile)> {
        self.jobs
            .iter()
            .max_by_key(|r| r.placement.num_cores())
            .map(|r| (r.tag, r.placement.num_cores(), r.profile))
    }

    /// Number of currently running jobs.
    pub fn num_running(&self) -> usize {
        self.jobs.len()
    }

    /// Ids and tags of running jobs.
    pub fn running(&self) -> impl Iterator<Item = (JobId, u64)> + '_ {
        self.jobs.iter().map(|r| (JobId(r.id), r.tag))
    }

    /// Estimated wall-clock seconds until `job` finishes at current rates.
    pub fn remaining_secs(&self, job: JobId) -> Result<f64, MachineError> {
        let r = self
            .jobs
            .binary_search_by_key(&job.0, |r| r.id)
            .map(|i| &self.jobs[i])
            .map_err(|_| MachineError::UnknownJob(job.0))?;
        Ok(r.remaining / r.rate.max(1e-12))
    }

    /// The recorded event trace (empty unless [`Engine::record_trace`] is on).
    pub fn trace(&self) -> &[EngineEvent] {
        &self.trace
    }

    /// Drains and returns the recorded trace.
    pub fn take_trace(&mut self) -> Vec<EngineEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Launches a job: allocate contexts per `request` and start progressing
    /// `nominal` solo-seconds of work described by `profile`. `tag` is an
    /// opaque caller id carried through to the outcome and trace.
    pub fn launch(
        &mut self,
        profile: WorkProfile,
        nominal: f64,
        request: &PlacementRequest,
        tag: u64,
    ) -> Result<JobId, MachineError> {
        if !nominal.is_finite() || nominal < 0.0 {
            return Err(MachineError::InvalidRequest(format!(
                "nominal duration must be finite and >= 0, got {nominal}"
            )));
        }
        profile.validate().map_err(MachineError::InvalidRequest)?;
        let placement = self.map.allocate(request)?;
        let id = self.next_id;
        self.next_id += 1;
        let ncores = self.occupants.len();
        let mask_start = self.core_masks.len();
        self.core_masks.resize(mask_start + self.mask_words, 0);
        let core_mask = &mut self.core_masks[mask_start..];
        let mut contexts = 0;
        for &(core, ctx) in &placement.cores {
            contexts += ctx;
            let c = core.0 as usize;
            core_mask[c / 64] |= 1 << (c % 64);
            // Ids only grow, so appending keeps every core's list in id order.
            let n = self.occupants[c];
            assert!(n < self.slots, "core {c} holds more jobs than contexts");
            self.residents[c * self.slots + n] = (id, ctx);
            self.occupants[c] = n + 1;
            self.shared_cores += usize::from(n == 1);
        }
        let cores = placement.num_cores() as f64;
        self.jobs.push(Running {
            id,
            tag,
            profile,
            demand: profile.mem_intensity * cores / ncores as f64,
            footprint: profile.cache_pressure * cores / ncores as f64,
            placement,
            nominal,
            remaining: nominal.max(1e-12),
            rate: 1.0,
            started: self.now,
            contexts: contexts as f64,
        });
        self.recompute_rates();
        if self.record_trace {
            self.trace.push(EngineEvent {
                time: self.now,
                kind: EventKind::Start,
                job: JobId(id),
                tag,
                corunning: self.jobs.len() as u32,
            });
        }
        Ok(JobId(id))
    }

    /// Advances simulated time to the next completion and returns it, or
    /// `None` if nothing is running.
    pub fn advance_next(&mut self) -> Option<JobOutcome> {
        let (index, next) = self.jobs.iter().enumerate().min_by(|(_, a), (_, b)| {
            let ta = a.remaining / a.rate.max(1e-12);
            let tb = b.remaining / b.rate.max(1e-12);
            ta.partial_cmp(&tb).unwrap().then(a.id.cmp(&b.id))
        })?;
        let dt = next.remaining / next.rate.max(1e-12);
        self.now += dt;
        for r in self.jobs.iter_mut() {
            r.remaining = (r.remaining - dt * r.rate).max(0.0);
        }
        let finished = self.jobs.remove(index);
        let w = self.mask_words;
        self.core_masks.drain(index * w..(index + 1) * w);
        for &(core, _) in &finished.placement.cores {
            let c = core.0 as usize;
            let n = self.occupants[c];
            self.occupants[c] = n - 1;
            if n == 1 {
                // The finished job held the core alone.
                continue;
            }
            self.shared_cores -= usize::from(n == 2);
            let held = &mut self.residents[c * self.slots..c * self.slots + n];
            let at = held
                .iter()
                .position(|&(id, _)| id == finished.id)
                .expect("a finished job resides on its cores");
            held.copy_within(at + 1.., at);
        }
        self.map.release(&finished.placement);
        self.recompute_rates();
        if self.record_trace {
            self.trace.push(EngineEvent {
                time: self.now,
                kind: EventKind::Finish,
                job: JobId(finished.id),
                tag: finished.tag,
                // "The number of co-running operations at the moment" of the
                // event (the paper's Figure 4): the finishing op is still
                // counted at its own completion instant.
                corunning: self.jobs.len() as u32 + 1,
            });
        }
        Some(JobOutcome {
            job: JobId(finished.id),
            tag: finished.tag,
            start: finished.started,
            finish: self.now,
            placement: finished.placement,
            nominal: finished.nominal,
        })
    }

    /// Runs everything currently launched to completion; returns outcomes in
    /// completion order.
    pub fn drain(&mut self) -> Vec<JobOutcome> {
        let mut out = Vec::with_capacity(self.jobs.len());
        while let Some(o) = self.advance_next() {
            out.push(o);
        }
        out
    }

    /// Recomputes every running job's progress rate from the current
    /// co-residency and bandwidth demands.
    ///
    /// Sums run in a fixed order — bandwidth and footprint sums over jobs
    /// in id order, each job's per-core ratios in core order — so a rate
    /// depends only on which jobs run where, never on how they got there.
    fn recompute_rates(&mut self) {
        let Engine {
            params,
            jobs,
            core_masks,
            mask_words,
            residents,
            occupants,
            slots,
            shared_cores,
            smt_ratio,
            core_residents,
            core_shares,
            ..
        } = self;
        if jobs.len() <= 1 {
            // A job alone on the machine holds every one of its cores
            // exclusively and has no co-runner to contend with: each factor
            // below is exactly 1.
            if let Some(only) = jobs.first_mut() {
                only.rate = 1.0;
            }
            return;
        }
        let index_of = |id: u64| {
            jobs.binary_search_by_key(&id, |r| r.id)
                .expect("a resident job is running")
        };

        // Per-core sharing model (see `KnlParams::core_share_ratio`): each
        // resident context demands issue capacity proportional to its
        // compute-boundness — a memory-stalled streaming op barely uses the
        // pipeline, so its SMT sibling runs almost for free, which is what
        // makes the paper's Strategy 4 profitable.
        smt_ratio.clear();
        if *shared_cores == 0 {
            // Every core is exclusive: each job's ratios sum to its whole
            // context count, exactly, so the walk is skipped.
            smt_ratio.extend(jobs.iter().map(|r| r.contexts));
        } else {
            smt_ratio.resize(jobs.len(), 0.0);
        }
        let walk = if *shared_cores == 0 {
            0
        } else {
            occupants.len()
        };
        // Consecutive cores with the same residents add the same amounts (a
        // job's cores mostly sit next to each other, and a scavenger riding
        // a wide op looks alike on every core it touches), so a run of them
        // is derived once — `core_shares` holds each resident's `(index in
        // jobs, addition per core)` — and its additions are replayed one by
        // one when the run ends: the same additions, in the same order, as
        // a core-by-core walk.
        let mut run: (&[(u64, u32)], usize) = (&[], 0);
        core_shares.clear();
        let end_run = |core_shares: &[(usize, f64)], cores: usize, smt_ratio: &mut [f64]| {
            for &(i, add) in core_shares {
                let mut sum = smt_ratio[i];
                for _ in 0..cores {
                    sum += add;
                }
                smt_ratio[i] = sum;
            }
        };
        for (held, &n) in residents.chunks_exact(*slots).zip(&occupants[..walk]) {
            let set = &held[..n];
            if set.is_empty() {
                continue;
            }
            if set == run.0 {
                run.1 += 1;
                continue;
            }
            end_run(core_shares, run.1, smt_ratio);
            core_shares.clear();
            if let &[(id, ctx)] = set {
                // Ratio 1.0 per context.
                core_shares.push((index_of(id), ctx as f64));
            } else {
                core_residents.clear();
                core_residents.extend(set.iter().map(|&(id, ctx)| {
                    let prof = &jobs[index_of(id)].profile;
                    (prof.cache_pressure, prof.mem_intensity, ctx)
                }));
                let ratio = params.core_share_ratio(core_residents);
                core_shares.extend(set.iter().zip(core_residents.iter()).map(
                    |(&(id, ctx), &(pressure, mem, _))| {
                        // Normalize against what the job's nominal duration
                        // already priced in: a depth-2 job's own SMT cost is
                        // in its nominal, only the *extra* slowdown from
                        // foreign contexts counts.
                        let alone = params.exclusive_share_ratio(pressure, mem, ctx);
                        (index_of(id), (ratio / alone).min(1.0) * ctx as f64)
                    },
                ));
            }
            run = (set, 1);
        }
        end_run(core_shares, run.1, smt_ratio);

        let total_demand: f64 = jobs.iter().map(|r| r.demand).sum();
        let mask = |i: usize| &core_masks[i * *mask_words..(i + 1) * *mask_words];
        for i in 0..jobs.len() {
            let me = &jobs[i];
            // Every job holds at least one context.
            let smt_factor = smt_ratio[i] / me.contexts;
            let bw_others = total_demand - me.demand;
            let bw_factor = 1.0 + params.bw_interference * me.profile.mem_intensity * bw_others;
            // Cross-job cache/mesh interference: core-disjoint co-runners
            // slosh each other's tiles through the mesh. Same-core contention
            // is already captured by the SMT share model, so only jobs with
            // no core in common contribute here. A single co-runner is cheap
            // (Table III's 34+34 split wins big); two or more multiply the
            // directory and mesh traffic, which is what keeps three- and
            // four-way co-running from scaling linearly.
            let mut disjoint = 0;
            let mine = mask(i);
            let cache_others: f64 = jobs
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != i && mine.iter().zip(mask(k)).all(|(a, b)| a & b == 0))
                .map(|(_, other)| {
                    disjoint += 1;
                    other.footprint
                })
                .sum();
            let crowding = if disjoint >= 2 { 6.0 } else { 1.0 };
            let cache_factor = 1.0
                + params.cache_interference * crowding * me.profile.cache_pressure * cache_others;
            jobs[i].rate = (smt_factor / (bw_factor * cache_factor)).clamp(1e-9, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PlacementRequest, SharingMode};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn engine() -> Engine {
        Engine::new(Topology::knl(), KnlParams::default())
    }

    fn conv_profile() -> WorkProfile {
        WorkProfile {
            flops: 2.9e10,
            bytes: 6e8,
            eff: 0.4,
            serial_secs: 3e-4,
            parallel_slack: 90.0,
            cache_affinity: 0.5,
            mem_intensity: 0.5,
            cache_pressure: 0.9,
        }
    }

    #[test]
    fn single_job_finishes_at_nominal() {
        let mut e = engine();
        let req = PlacementRequest::primary(34, SharingMode::Compact);
        e.launch(conv_profile(), 0.020, &req, 1).unwrap();
        let out = e.advance_next().unwrap();
        assert!((out.finish - 0.020).abs() < 1e-12);
        assert_eq!(out.tag, 1);
        assert_eq!(e.free_cores(), 68);
    }

    #[test]
    fn disjoint_compute_jobs_do_not_interfere() {
        let mut e = engine();
        let mut p = conv_profile();
        p.mem_intensity = 0.0;
        p.cache_pressure = 0.0; // no bandwidth demand, no cache footprint
        let req = PlacementRequest::primary(34, SharingMode::Compact);
        e.launch(p, 0.020, &req, 1).unwrap();
        e.launch(p, 0.030, &req, 2).unwrap();
        let o1 = e.advance_next().unwrap();
        let o2 = e.advance_next().unwrap();
        assert!((o1.finish - 0.020).abs() < 1e-9);
        assert!((o2.finish - 0.030).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_contention_slows_both() {
        let mut e = engine();
        let req = PlacementRequest::primary(34, SharingMode::Compact);
        e.launch(conv_profile(), 0.020, &req, 1).unwrap();
        e.launch(conv_profile(), 0.020, &req, 2).unwrap();
        let o1 = e.advance_next().unwrap();
        assert!(
            o1.finish > 0.021,
            "memory contention should stretch the 20ms job, got {}",
            o1.finish
        );
        let o2 = e.advance_next().unwrap();
        assert!(o2.finish >= o1.finish);
    }

    #[test]
    fn ht_corun_of_two_convs_barely_gains() {
        // Paper Table III: serial 68+68 vs hyper-threaded co-run of two
        // cache-hungry convolutions => ~3% gain only.
        let mut e = engine();
        let mut p = conv_profile();
        p.mem_intensity = 0.0; // isolate the SMT effect
        let t_each = 0.020;
        // Serial: one after the other.
        let req = PlacementRequest::primary(68, SharingMode::Compact);
        e.launch(p, t_each, &req, 1).unwrap();
        e.advance_next().unwrap();
        e.launch(p, t_each, &req, 2).unwrap();
        let serial_span = e.advance_next().unwrap().finish;
        assert!((serial_span - 2.0 * t_each).abs() < 1e-9);

        // Co-run on SMT siblings.
        let mut e = engine();
        e.launch(p, t_each, &req, 1).unwrap();
        e.launch(p, t_each, &PlacementRequest::hyper_thread(68), 2)
            .unwrap();
        let span = e.drain().last().unwrap().finish;
        let speedup = serial_span / span;
        assert!(
            (0.90..1.25).contains(&speedup),
            "HT co-run of cache-hungry ops should gain little, got {speedup:.3}x"
        );
    }

    #[test]
    fn streaming_op_scavenges_ht_cycles_cheaply() {
        // Strategy 4's premise: a small memory-stalled op rides the second
        // hardware thread while barely denting the big compute-bound op
        // (the streaming op demands almost no issue slots).
        let mut e = engine();
        let mut big = conv_profile();
        big.mem_intensity = 0.0;
        let mut small = WorkProfile::memory_bound(1e6);
        small.cache_pressure = 0.2;
        let req = PlacementRequest::primary(68, SharingMode::Compact);
        e.launch(big, 0.020, &req, 1).unwrap();
        e.launch(small, 0.001, &PlacementRequest::hyper_thread(8), 2)
            .unwrap();
        let outs = e.drain();
        let big_out = outs.iter().find(|o| o.tag == 1).unwrap();
        assert!(
            big_out.finish < 0.020 * 1.10,
            "big op should lose <10% to the scavenger, got {}",
            big_out.finish
        );
    }

    #[test]
    fn compute_hungry_pair_splits_the_core() {
        // Two compute-bound jobs on SMT siblings each get roughly half.
        let mut e = engine();
        let mut p = conv_profile();
        p.mem_intensity = 0.0;
        e.launch(
            p,
            0.020,
            &PlacementRequest::primary(68, SharingMode::Compact),
            1,
        )
        .unwrap();
        e.launch(p, 0.020, &PlacementRequest::hyper_thread(68), 2)
            .unwrap();
        let span = e.drain().last().unwrap().finish;
        let speedup = 0.040 / span;
        assert!(
            (0.85..1.25).contains(&speedup),
            "cache-hungry SMT pair should roughly tie serial execution, got {speedup:.3}"
        );
    }

    #[test]
    fn trace_records_corunning_counts() {
        let mut e = engine();
        e.record_trace(true);
        let req = PlacementRequest::primary(20, SharingMode::Compact);
        let p = conv_profile();
        e.launch(p, 0.010, &req, 1).unwrap();
        e.launch(p, 0.010, &req, 2).unwrap();
        e.launch(p, 0.010, &req, 3).unwrap();
        e.drain();
        let trace = e.trace();
        assert_eq!(trace.len(), 6);
        let starts: Vec<u32> = trace
            .iter()
            .filter(|ev| ev.kind == EventKind::Start)
            .map(|ev| ev.corunning)
            .collect();
        assert_eq!(starts, vec![1, 2, 3]);
        let finishes: Vec<u32> = trace
            .iter()
            .filter(|ev| ev.kind == EventKind::Finish)
            .map(|ev| ev.corunning)
            .collect();
        // The finishing op counts at its own completion instant.
        assert_eq!(finishes, vec![3, 2, 1]);
    }

    #[test]
    fn remaining_secs_tracks_progress() {
        let mut e = engine();
        let req = PlacementRequest::primary(10, SharingMode::Compact);
        let id = e.launch(conv_profile(), 0.050, &req, 1).unwrap();
        assert!((e.remaining_secs(id).unwrap() - 0.050).abs() < 1e-9);
        assert!(e.remaining_secs(JobId(999)).is_err());
    }

    #[test]
    fn launch_rejects_bad_nominal() {
        let mut e = engine();
        let req = PlacementRequest::primary(4, SharingMode::Compact);
        assert!(e.launch(conv_profile(), f64::NAN, &req, 0).is_err());
        assert!(e.launch(conv_profile(), -1.0, &req, 0).is_err());
    }

    #[test]
    fn advance_on_empty_engine_is_none() {
        let mut e = engine();
        assert!(e.advance_next().is_none());
    }

    /// Reference rates: the original allocation-heavy formulation of
    /// [`Engine::recompute_rates`] (per-call maps, a set per job, pairwise
    /// disjointness scans), kept as the oracle the engine must match bit
    /// for bit.
    fn reference_rates(e: &Engine) -> BTreeMap<u64, f64> {
        let jobs: BTreeMap<u64, &Running> = e.jobs.iter().map(|r| (r.id, r)).collect();
        let mut rates = BTreeMap::new();
        if jobs.is_empty() {
            return rates;
        }
        let ncores = e.map.topology().num_cores() as f64;

        let mut residents: BTreeMap<u32, Vec<(u64, u32)>> = BTreeMap::new();
        for (&id, r) in &jobs {
            for &(core, ctx) in &r.placement.cores {
                residents.entry(core.0).or_default().push((id, ctx));
            }
        }

        let demand: BTreeMap<u64, f64> = jobs
            .iter()
            .map(|(&id, r)| {
                (
                    id,
                    r.profile.mem_intensity * r.placement.num_cores() as f64 / ncores,
                )
            })
            .collect();
        let total_demand: f64 = demand.values().sum();
        let footprint: BTreeMap<u64, f64> = jobs
            .iter()
            .map(|(&id, r)| {
                (
                    id,
                    r.profile.cache_pressure * r.placement.num_cores() as f64 / ncores,
                )
            })
            .collect();

        let params = e.params.clone();
        let mut core_ratio: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for occupants in residents.values() {
            let distinct: Vec<u64> = {
                let mut v: Vec<u64> = occupants.iter().map(|&(id, _)| id).collect();
                v.dedup();
                v
            };
            if distinct.len() == 1 {
                let (id, ctx) = occupants[0];
                let e = core_ratio.entry(id).or_insert((0.0, 0.0));
                e.0 += ctx as f64;
                e.1 += ctx as f64;
                continue;
            }
            let tuples: Vec<(f64, f64, u32)> = occupants
                .iter()
                .map(|&(id, c)| {
                    let prof = &jobs[&id].profile;
                    (prof.cache_pressure, prof.mem_intensity, c)
                })
                .collect();
            let ratio = params.core_share_ratio(&tuples);
            for &(id, ctx) in occupants {
                let prof = &jobs[&id].profile;
                let alone =
                    params.exclusive_share_ratio(prof.cache_pressure, prof.mem_intensity, ctx);
                let relative = (ratio / alone).min(1.0);
                let e = core_ratio.entry(id).or_insert((0.0, 0.0));
                e.0 += relative * ctx as f64;
                e.1 += ctx as f64;
            }
        }

        for &id in jobs.keys() {
            let (sum, ctxs) = core_ratio.get(&id).copied().unwrap_or((1.0, 1.0));
            let smt_factor = if ctxs > 0.0 { sum / ctxs } else { 1.0 };
            let bw_others = total_demand - demand[&id];
            let bw_factor =
                1.0 + params.bw_interference * jobs[&id].profile.mem_intensity * bw_others;
            let my_cores: std::collections::BTreeSet<u32> = jobs[&id]
                .placement
                .cores
                .iter()
                .map(|&(c, _)| c.0)
                .collect();
            let disjoint: Vec<u64> = jobs
                .iter()
                .filter(|&(&k, other)| {
                    k != id
                        && other
                            .placement
                            .cores
                            .iter()
                            .all(|&(c, _)| !my_cores.contains(&c.0))
                })
                .map(|(&k, _)| k)
                .collect();
            let cache_others: f64 = disjoint.iter().map(|k| footprint[k]).sum();
            let crowding = if disjoint.len() >= 2 { 6.0 } else { 1.0 };
            let cache_factor = 1.0
                + params.cache_interference
                    * crowding
                    * jobs[&id].profile.cache_pressure
                    * cache_others;
            rates.insert(
                id,
                (smt_factor / (bw_factor * cache_factor)).clamp(1e-9, 1.0),
            );
        }
        rates
    }

    /// Overwrites every running job's rate with the reference's, turning a
    /// second engine into the reference engine.
    fn pin_reference_rates(e: &mut Engine) {
        let rates = reference_rates(e);
        for r in &mut e.jobs {
            r.rate = rates[&r.id];
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        Launch(WorkProfile, f64, PlacementRequest),
        Advance,
    }

    fn arb_request() -> impl Strategy<Value = PlacementRequest> {
        prop_oneof![
            (1u32..=80).prop_map(|t| PlacementRequest::primary(t, SharingMode::Compact)),
            (1u32..=80).prop_map(|t| PlacementRequest::primary(t, SharingMode::Scatter)),
            (1u32..=68).prop_map(PlacementRequest::hyper_thread),
            (1u32..=272).prop_map(PlacementRequest::shared),
        ]
    }

    /// Memory intensity or cache pressure, including both extremes.
    fn arb_unit() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), 0.0f64..=1.0, 0.0f64..=1.0, Just(1.0)]
    }

    /// Launches three times as often as completions, so co-runners pile up.
    fn arb_step() -> impl Strategy<Value = Step> {
        (
            0u32..4,
            arb_unit(),
            arb_unit(),
            1e-6f64..0.05,
            arb_request(),
        )
            .prop_map(|(choice, mem, pressure, nominal, req)| {
                if choice == 0 {
                    return Step::Advance;
                }
                let mut p = conv_profile();
                p.mem_intensity = mem;
                p.cache_pressure = pressure;
                Step::Launch(p, nominal, req)
            })
    }

    fn assert_same_state(fast: &Engine, reference: &Engine) -> Result<(), TestCaseError> {
        let want = reference_rates(fast);
        for r in &fast.jobs {
            prop_assert_eq!(
                r.rate.to_bits(),
                want[&r.id].to_bits(),
                "rate of job {}",
                r.id
            );
        }
        let ids: Vec<JobId> = fast.running().map(|(id, _)| id).collect();
        let ref_ids: Vec<JobId> = reference.running().map(|(id, _)| id).collect();
        prop_assert_eq!(&ids, &ref_ids);
        for id in ids {
            prop_assert_eq!(
                fast.remaining_secs(id).unwrap().to_bits(),
                reference.remaining_secs(id).unwrap().to_bits()
            );
        }
        Ok(())
    }

    /// Checks the engine's incremental indexes — the per-core resident
    /// table, the shared-core count, each job's context count and core
    /// mask — against a scan of the running jobs' placements.
    fn assert_indexes_match_the_scan(e: &Engine) -> Result<(), TestCaseError> {
        let ncores = e.occupants.len();
        let holds = |r: &Running, c: usize| {
            r.placement
                .cores
                .iter()
                .find(|&&(core, _)| core.0 as usize == c)
                .map(|&(_, ctx)| (r.id, ctx))
        };
        let mut shared = 0;
        for c in 0..ncores {
            let want: Vec<(u64, u32)> = e.jobs.iter().filter_map(|r| holds(r, c)).collect();
            let got = &e.residents[c * e.slots..c * e.slots + e.occupants[c]];
            prop_assert_eq!(got, &want[..], "residents of core {}", c);
            shared += usize::from(want.len() >= 2);
        }
        prop_assert_eq!(e.shared_cores, shared);
        let w = e.mask_words;
        prop_assert_eq!(e.core_masks.len(), e.jobs.len() * w);
        for (i, r) in e.jobs.iter().enumerate() {
            prop_assert_eq!(r.contexts, r.placement.num_contexts() as f64);
            let mask = &e.core_masks[i * w..(i + 1) * w];
            for c in 0..ncores {
                let bit = (mask[c / 64] >> (c % 64)) & 1 == 1;
                prop_assert_eq!(
                    bit,
                    holds(r, c).is_some(),
                    "mask of job {} core {}",
                    r.id,
                    c
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn incremental_indexes_match_the_scan(
            knl in proptest::sample::select(vec![true, false]),
            steps in proptest::collection::vec(arb_step(), 1..60),
        ) {
            let topo = if knl { Topology::knl() } else { Topology::tiny(5) };
            let mut e = Engine::new(topo, KnlParams::default());
            for (tag, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Launch(profile, nominal, req) => {
                        if e.num_running() < 6 {
                            let _ = e.launch(profile, nominal, &req, tag as u64);
                        }
                    }
                    Step::Advance => {
                        e.advance_next();
                    }
                }
                assert_indexes_match_the_scan(&e)?;
            }
            while e.advance_next().is_some() {
                assert_indexes_match_the_scan(&e)?;
            }
            prop_assert_eq!(e.shared_cores, 0);
            prop_assert!(e.occupants.iter().all(|&n| n == 0));
        }

        #[test]
        fn rates_match_the_reference_formulation(
            steps in proptest::collection::vec(arb_step(), 1..60),
        ) {
            let mut fast = engine();
            let mut reference = engine();
            for (tag, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Launch(profile, nominal, req) => {
                        if fast.num_running() >= 6 {
                            continue;
                        }
                        let a = fast.launch(profile, nominal, &req, tag as u64);
                        let b = reference.launch(profile, nominal, &req, tag as u64);
                        pin_reference_rates(&mut reference);
                        prop_assert_eq!(a.ok(), b.ok());
                    }
                    Step::Advance => {
                        let a = fast.advance_next();
                        let b = reference.advance_next();
                        pin_reference_rates(&mut reference);
                        prop_assert_eq!(
                            a.as_ref().map(|o| (o.job, o.finish.to_bits())),
                            b.as_ref().map(|o| (o.job, o.finish.to_bits()))
                        );
                    }
                }
                assert_same_state(&fast, &reference)?;
            }
            while let Some(a) = fast.advance_next() {
                let b = reference.advance_next().expect("both engines run the same jobs");
                pin_reference_rates(&mut reference);
                prop_assert_eq!((a.job, a.finish.to_bits()), (b.job, b.finish.to_bits()));
                assert_same_state(&fast, &reference)?;
            }
            prop_assert!(reference.advance_next().is_none());
        }
    }
}
