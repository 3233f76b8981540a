//! The two in-process fleet workloads.
//!
//! * `fleet-warm`: the `nnrt serve` model mix repeated over two KNL nodes
//!   with the journal on. After the first job of each model every profile
//!   key is a store hit, so the run is step simulation plus durability.
//! * `fleet-cold`: every job is a distinct (model, batch) on one KNL, one
//!   GPU and one cluster node, journal off, two profiling workers. The
//!   store is written, not read: hill climbs, GPU launch-config climbs,
//!   inserts past the store's entry cap, the GPU stream runtime and the
//!   cluster simulator all do their work here.
//!
//! A round builds the graphs and the fleet (set-up), submits every job and
//! runs the fleet to completion (timed), then reads every job's status
//! back to check it. Rounds repeat with the same inputs until the run
//! time is spent, and each round's report must be byte-identical.

use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, Metrics, Outcome, ScratchDir};
use nnrt_gpu::{GpuRuntime, GpuSpec};
use nnrt_graph::DataflowGraph;
use nnrt_manycore::{KnlCostModel, MachineSignature};
use nnrt_obs::ObsConfig;
use nnrt_sched::{OpCatalog, ProfilerPool, Runtime, TfExecutor, TfExecutorConfig};
use nnrt_serve::{
    DurabilityConfig, Fleet, FleetConfig, FleetReport, JobId, JobPhase, JobReport, JobSpec,
    Journal, JournalRecord, NodeBackend, ProfileStore,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Cold,
}

/// The `nnrt serve` job mix: (model, batch).
const MIX: [(&str, usize); 5] = [
    ("resnet50", 16),
    ("dcgan", 16),
    ("inception", 4),
    ("lstm", 8),
    ("transformer", 4),
];

/// fleet-warm: jobs of each mix model per round (60 jobs, about a second).
const WARM_JOBS_PER_MODEL: usize = 12;
/// fleet-cold's batch sizes: each model at every one of them, so a round
/// is 80 distinct keys, enough to push the 4,096-entry store past its cap.
/// The set is fixed so that every seed does the same amount of work; the
/// seed orders the jobs and drives the fleet's profiling noise.
const COLD_BATCHES: [usize; 16] = [2, 5, 8, 11, 14, 17, 20, 23, 26, 29, 32, 35, 38, 41, 44, 47];
const COLD_BACKENDS: [NodeBackend; 3] = [NodeBackend::Knl, NodeBackend::Gpu, NodeBackend::Cluster];

struct JobPlan {
    model: &'static str,
    batch: usize,
    priority: u8,
    weight: f64,
    steps: u32,
}

/// A round's inputs, all drawn from the seed.
struct Plan {
    kind: Kind,
    jobs: Vec<JobPlan>,
    fleet_seed: u64,
}

impl Plan {
    fn new(kind: Kind, seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let fleet_seed = rng.next_u64();
        let mut keys = Vec::new();
        for (model, batch) in MIX {
            match kind {
                Kind::Warm => keys.extend(std::iter::repeat_n((model, batch), WARM_JOBS_PER_MODEL)),
                Kind::Cold => keys.extend(COLD_BATCHES.iter().map(|&b| (model, b))),
            }
        }
        rng.shuffle(&mut keys);
        let jobs = keys
            .into_iter()
            .map(|(model, batch)| JobPlan {
                model,
                batch,
                priority: rng.below(3) as u8,
                weight: 1.0 + rng.below(4) as f64,
                steps: match kind {
                    Kind::Warm => 3,
                    Kind::Cold => 2,
                },
            })
            .collect();
        Plan {
            kind,
            jobs,
            fleet_seed,
        }
    }

    fn backends(&self) -> Vec<NodeBackend> {
        match self.kind {
            Kind::Warm => vec![NodeBackend::Knl; 2],
            Kind::Cold => COLD_BACKENDS.to_vec(),
        }
    }

    fn config(&self, obs_on: bool, journal_dir: &Path) -> FleetConfig {
        FleetConfig {
            node_count: self.backends().len() as u32,
            queue_capacity: self.jobs.len() + 16,
            seed: self.fleet_seed,
            profile_threads: match self.kind {
                Kind::Warm => 1,
                Kind::Cold => 2,
            },
            durability: (self.kind == Kind::Warm).then(|| DurabilityConfig::new(journal_dir)),
            obs: if obs_on {
                ObsConfig::on()
            } else {
                ObsConfig::off()
            },
            ..FleetConfig::default()
        }
    }
}

/// What one round measured.
struct Round {
    setup_secs: f64,
    /// First submit to the end of `Fleet::run`.
    wall_secs: f64,
    submit_secs: Vec<f64>,
    /// Status reads made to check the outcome.
    reads: usize,
    report: FleetReport,
    json: String,
    journal_bytes: u64,
    failed: u64,
    graphs: BTreeMap<(&'static str, usize), DataflowGraph>,
}

impl Round {
    fn total_secs(&self) -> f64 {
        self.setup_secs + self.wall_secs
    }
}

fn round(plan: &Plan, obs_on: bool, scratch: &Path, tracer: &mut Tracer) -> Result<Round, String> {
    let journal_dir = scratch.join("journal");
    let _ = std::fs::remove_dir_all(&journal_dir);

    let setup = Instant::now();
    let mut graphs = BTreeMap::new();
    for job in &plan.jobs {
        if let std::collections::btree_map::Entry::Vacant(slot) =
            graphs.entry((job.model, job.batch))
        {
            let spec = tracer.span("models.build", || {
                nnrt_models::by_name(job.model, Some(job.batch))
            });
            let spec = spec.ok_or_else(|| format!("unknown model {}", job.model))?;
            slot.insert(spec.graph);
        }
    }
    let config = plan.config(obs_on, &journal_dir);
    let mut fleet = match plan.kind {
        Kind::Warm => Fleet::new(config),
        Kind::Cold => Fleet::with_backends(config, plan.backends(), Arc::new(ProfileStore::new())),
    };
    let setup_secs = setup.elapsed().as_secs_f64();

    let mut failed = 0;
    let mut submit_secs = Vec::with_capacity(plan.jobs.len());
    let start = Instant::now();
    for (i, job) in plan.jobs.iter().enumerate() {
        // A submit is timed from the built graph: the job carries its own
        // copy, as it does when the RPC server admits it.
        let t = Instant::now();
        let spec = JobSpec {
            name: format!("{}-{i}", job.model),
            model: job.model.to_string(),
            graph: graphs[&(job.model, job.batch)].clone(),
            steps: job.steps,
            priority: job.priority,
            weight: job.weight,
        };
        let admitted = fleet.submit(spec);
        let secs = t.elapsed().as_secs_f64();
        tracer.add("serve.submit", secs);
        submit_secs.push(secs);
        if admitted.is_err() {
            failed += 1;
        }
    }
    let report = fleet.run();
    let wall_secs = start.elapsed().as_secs_f64();

    let n = plan.jobs.len();
    for id in 0..n as u64 {
        let status = fleet.job_status(JobId(id));
        if status.is_none_or(|s| s.phase != JobPhase::Completed) {
            failed += 1;
        }
    }
    if fleet.list_jobs().len() != n {
        failed += 1;
    }
    failed += n.saturating_sub(report.jobs.len()) as u64;
    drop(fleet);
    let journal_bytes = dir_bytes(&journal_dir);
    let _ = std::fs::remove_dir_all(&journal_dir);
    Ok(Round {
        setup_secs,
        wall_secs,
        submit_secs,
        reads: n + 1,
        json: report.to_json(),
        report,
        journal_bytes,
        failed,
        graphs,
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Untraced rounds until `budget` is spent, at least two so that their
/// reports can be compared. No round is replayed, so none keeps its graphs.
fn rounds(plan: &Plan, budget: Duration, scratch: &Path) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut out: Vec<Round> = Vec::new();
    while out.len() < 2 || start.elapsed() < budget {
        let mut r = round(plan, true, scratch, &mut Tracer::new(false))?;
        r.graphs.clear();
        out.push(r);
    }
    Ok(out)
}

/// The per-job seed `Fleet` derives from its own seed and the job id, so
/// the replay profiles with the fleet's noise.
fn job_seed(fleet_seed: u64, id: u64) -> u64 {
    let mut z = fleet_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counters the replay collects beside its spans.
#[derive(Default)]
struct ReplayCounts {
    measurements: u64,
    climbed_keys: u64,
    seeded_keys: u64,
    journal_records: u64,
}

/// Replays every job's placement in placement order, calling the public
/// functions `Fleet::prepare_on_node` calls, in its order, against one
/// shared store, each inside a span: the catalog, the store lookup, the
/// KNL or GPU profiling phase, export plus store insert, one step, the
/// cluster simulation, and (journal on) the journal appends the fleet
/// makes for the placement, its steps and its completion.
fn replay(
    plan: &Plan,
    round: &Round,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<ReplayCounts, String> {
    let config = plan.config(true, Path::new(""));
    let backends = plan.backends();
    let knl = KnlCostModel::knl();
    let gpu = GpuSpec::p100();
    let signature = |backend: NodeBackend| -> MachineSignature {
        match backend {
            NodeBackend::Knl => knl.signature(),
            NodeBackend::Gpu => gpu.signature(),
            NodeBackend::Cluster => MachineSignature::of_cluster(
                knl.signature(),
                config.cluster.nodes,
                config.cluster.network.latency,
                config.cluster.network.bandwidth,
            ),
        }
    };
    let store = ProfileStore::new();
    let journal_dir = scratch.join("replay-journal");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let mut journal = match plan.kind {
        Kind::Warm => Some(Journal::create(&journal_dir).map_err(|e| format!("journal: {e}"))?),
        Kind::Cold => None,
    };
    let mut counts = ReplayCounts::default();
    let mut append = |tracer: &mut Tracer, journal: &mut Option<Journal>, rec: JournalRecord| {
        if let Some(j) = journal.as_mut() {
            tracer
                .span("serve.journal.append", || j.append(&rec))
                .expect("replay journal append");
            counts.journal_records += 1;
        }
    };

    // Placement order: the node clock at placement, then the admission
    // queue's own order (priority, weight, submission).
    let mut order: Vec<&JobReport> = round.report.jobs.iter().collect();
    order.sort_by(|a, b| {
        let placed = |j: &JobReport| j.submitted_at + j.queue_latency_secs;
        placed(a)
            .total_cmp(&placed(b))
            .then(b.priority.cmp(&a.priority))
            .then(b.weight.total_cmp(&a.weight))
            .then(a.id.cmp(&b.id))
    });
    let mut measurements = 0;
    let mut climbed = 0;
    let mut seeded = 0;
    for job in order {
        let p = &plan.jobs[job.id as usize];
        let graph = &round.graphs[&(p.model, p.batch)];
        let backend = backends[job.node as usize];
        let sig = signature(backend);
        append(
            tracer,
            &mut journal,
            JournalRecord::Place {
                id: job.id,
                node: job.node,
            },
        );
        let catalog = tracer.span("sched.catalog", || OpCatalog::new(graph));
        let keys = catalog.keys().to_vec();
        let warm = tracer.span("serve.store.lookup", || store.lookup(sig, &keys));
        let pool = ProfilerPool::new(config.profile_threads);
        let (published, fitted_keys) = match backend {
            NodeBackend::Knl | NodeBackend::Cluster => {
                let mut rcfg = config.runtime;
                rcfg.seed = job_seed(config.seed, job.id);
                let rt = tracer.span("sched.profile", || {
                    Runtime::prepare_warm_pooled(graph, knl.clone(), rcfg, &warm, u32::MAX, pool)
                });
                let outcome = rt.fit_outcome();
                measurements += outcome.climbs.iter().map(|c| c.measurements).sum::<u64>();
                climbed += outcome.climbs.len() as u64;
                seeded += outcome.seeded_keys as u64;
                let published = tracer.span("serve.store.insert", || {
                    let published = rt.model().export();
                    store.insert_many(sig, &published);
                    published
                });
                let step = tracer.span("sched.step", || rt.run_step(graph));
                if backend == NodeBackend::Cluster {
                    tracer.span("cluster.sim", || {
                        let op_secs = nnrt_cluster::per_op_secs(graph, step.total_secs);
                        nnrt_cluster::simulate_data_parallel(graph, &op_secs, &config.cluster)
                    });
                }
                let fitted = keys.iter().filter(|k| rt.model().contains(k)).cloned();
                (published, fitted.collect::<Vec<_>>())
            }
            NodeBackend::Gpu => {
                let mut gcfg = config.gpu;
                gcfg.profile.seed = job_seed(config.seed, job.id);
                let rt = tracer.span("gpu.profile", || {
                    GpuRuntime::prepare_warm_pooled(graph, gpu, gcfg, &warm, u32::MAX, pool)
                });
                let published = tracer.span("serve.store.insert", || {
                    let published = rt.profile().export();
                    store.insert_many(sig, &published);
                    published
                });
                tracer.span("gpu.step", || rt.run_step(graph));
                let fitted = keys.iter().filter(|k| rt.profile().contains(k)).cloned();
                (published, fitted.collect::<Vec<_>>())
            }
        };
        append(
            tracer,
            &mut journal,
            JournalRecord::StoreInsert {
                machine: sig,
                profiles: published,
            },
        );
        for steps_done in 1..job.steps {
            append(
                tracer,
                &mut journal,
                JournalRecord::Checkpoint {
                    id: job.id,
                    steps_done,
                    at: job.completed_at,
                    fitted_keys: fitted_keys.clone(),
                },
            );
        }
        append(
            tracer,
            &mut journal,
            JournalRecord::Complete {
                id: job.id,
                name: job.name.clone(),
                model: job.model.clone(),
                steps: job.steps,
                node: job.node,
                at: job.completed_at,
            },
        );
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&journal_dir);
    counts.measurements = measurements;
    counts.climbed_keys = climbed;
    counts.seeded_keys = seeded;
    Ok(counts)
}

/// The paper's headline: geomean over the mix models of the TensorFlow
/// recommendation's step time over the fleet's step time.
fn speedup_vs_tf(report: &FleetReport) -> f64 {
    let knl = KnlCostModel::knl();
    let mut log_sum = 0.0;
    for (model, batch) in MIX {
        let graph = nnrt_models::by_name(model, Some(batch))
            .expect("mix model")
            .graph;
        let tf = TfExecutor::new(TfExecutorConfig::recommendation())
            .run_step(&graph, &OpCatalog::new(&graph), &knl)
            .total_secs;
        let ours: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| j.model == model)
            .map(|j| j.step_secs)
            .collect();
        log_sum += (tf / stats::median(&ours)).ln();
    }
    (log_sum / MIX.len() as f64).exp()
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let plan = Plan::new(kind, args.seed);
    let scratch = ScratchDir::new(match kind {
        Kind::Warm => "fleet-warm",
        Kind::Cold => "fleet-cold",
    })
    .map_err(|e| format!("scratch dir: {e}"))?;
    let dir = scratch.0.as_path();

    let (measured, off, traced, replays) = if args.trace {
        // Untraced, observability-off and traced rounds in turn, so that
        // a slow spell of the host weighs on all three alike.
        let mut tracer = Tracer::new(true);
        let mut untraced = Tracer::new(false);
        let (mut measured, mut off, mut traced, mut counts) = (vec![], vec![], vec![], vec![]);
        let start = Instant::now();
        while traced.is_empty() || start.elapsed() < args.seconds {
            measured.push(round(&plan, true, dir, &mut untraced)?);
            off.push(round(&plan, false, dir, &mut untraced)?);
            let r = round(&plan, true, dir, &mut tracer)?;
            counts.push(replay(&plan, &r, dir, &mut tracer)?);
            traced.push(r);
            for r in measured.iter_mut().chain(&mut off).chain(&mut traced) {
                r.graphs.clear();
            }
        }
        (measured, off, traced, Some((tracer, counts)))
    } else {
        let measured = rounds(&plan, args.seconds, dir)?;
        (measured, Vec::new(), Vec::new(), None)
    };

    // Output checks: every job completes, and every round with the same
    // observability setting produces a byte-identical report.
    let first = &measured[0];
    let same_obs = measured.iter().chain(traced.iter());
    let mut correct = same_obs.clone().all(|r| r.json == first.json);
    correct &= off.iter().all(|r| r.json == off[0].json);
    let all = || measured.iter().chain(off.iter()).chain(traced.iter());
    correct &= all().all(|r| r.report.jobs.len() == plan.jobs.len() && r.failed == 0);
    let attempted: u64 = all().map(|r| (r.submit_secs.len() + r.reads) as u64).sum();
    let failed: u64 = all().map(|r| r.failed).sum();

    let report = &first.report;
    let speedup = match kind {
        Kind::Warm => speedup_vs_tf(report),
        Kind::Cold => 0.0,
    };
    let submits: Vec<f64> = measured
        .iter()
        .flat_map(|r| r.submit_secs.clone())
        .collect();
    eprintln!(
        "{} rounds x {} jobs; {} submit samples; makespan {} s, \
         {} profiling steps, speedup vs TF {speedup:.4}",
        measured.len(),
        plan.jobs.len(),
        submits.len(),
        report.makespan_secs,
        report.profiling_steps_total,
    );
    let median_of =
        |rs: &[Round], f: fn(&Round) -> f64| stats::median(&rs.iter().map(f).collect::<Vec<_>>());

    let metrics = match replays {
        None => {
            let mut m = Metrics::default();
            m.put("setup_s", median_of(&measured, |r| r.setup_secs), "s");
            let n = plan.jobs.len() as f64;
            let jobs_per_s =
                stats::median(&measured.iter().map(|r| n / r.wall_secs).collect::<Vec<_>>());
            m.put("jobs_per_s", jobs_per_s, "jobs/s");
            m.put("submit_p50_ms", stats::quantile(&submits, 0.5) * 1e3, "ms");
            m.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
            m
        }
        Some((tracer, counts)) => {
            let untraced_wall = median_of(&measured, Round::total_secs);
            let rounds = traced.len() as f64;
            let sum = |f: fn(&ReplayCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
            let looked_up = (report.store_hits + report.store_misses).max(1) as f64;
            let climbed = sum(|c| c.climbed_keys);
            let extras = [
                ("sched.measurements", sum(|c| c.measurements) / rounds),
                (
                    "sched.seeded_frac",
                    if climbed > 0.0 {
                        sum(|c| c.seeded_keys) / climbed
                    } else {
                        0.0
                    },
                ),
                ("serve.submit_us_p50", stats::quantile(&submits, 0.5) * 1e6),
                ("serve.submit_us_p99", stats::quantile(&submits, 0.99) * 1e6),
                ("serve.store.hit_frac", report.store_hits as f64 / looked_up),
                ("serve.store.evictions", report.store_evictions as f64),
                ("serve.journal.records", sum(|c| c.journal_records) / rounds),
                ("serve.journal.bytes", first.journal_bytes as f64),
                (
                    "obs.tax_frac",
                    untraced_wall / median_of(&off, Round::total_secs) - 1.0,
                ),
                (
                    "trace.coverage",
                    tracer.total_secs() / rounds / untraced_wall,
                ),
                (
                    "trace.overhead_frac",
                    median_of(&traced, Round::total_secs) / untraced_wall - 1.0,
                ),
                ("sim.makespan_s", report.makespan_secs),
                ("sim.speedup_vs_tf", speedup),
                ("sim.profiling_steps", report.profiling_steps_total as f64),
            ];
            crate::layer_metrics(&tracer, rounds, untraced_wall, &extras)
        }
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}
