//! Chaos-fleet integration tests: deterministic fault injection against the
//! multi-tenant service, and the recovery machinery it exercises — node
//! crash with checkpoint/restart, straggler avoidance, profile-store
//! corruption, and graceful degradation when profiling runs out of budget.

use nnrt::obs::{Clock, EventKind};
use nnrt::prelude::*;
use nnrt::serve::{FaultEvent, FaultPlan, Fleet, FleetConfig, FleetReport, JobSpec};

fn job(name: &str, model: &str, graph: &nnrt::graph::DataflowGraph, steps: u32) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        model: model.to_string(),
        graph: graph.clone(),
        steps,
        priority: 0,
        weight: 1.0,
    }
}

fn dcgan_fleet(config: &FleetConfig, jobs: usize, steps: u32) -> Fleet {
    let g = dcgan(4).graph;
    let mut fleet = Fleet::new(config.clone());
    for i in 0..jobs {
        fleet
            .submit(job(&format!("dcgan-{i}"), "dcgan", &g, steps))
            .unwrap();
    }
    fleet
}

#[test]
fn fault_free_plan_is_bit_identical_to_no_plan() {
    let config = FleetConfig {
        node_count: 2,
        ..FleetConfig::default()
    };
    let plain = dcgan_fleet(&config, 6, 3).run();

    let mut armed = dcgan_fleet(&config, 6, 3);
    armed.set_fault_plan(FaultPlan::none());
    let chaos = armed.run();

    assert_eq!(
        plain.to_json(),
        chaos.to_json(),
        "an empty fault plan must not perturb a single bit of the run"
    );
    assert_eq!(chaos.faults_injected, 0);
    assert_eq!(chaos.retries_total, 0);
    assert_eq!(chaos.checkpoint_restores_total, 0);
    assert_eq!(chaos.degraded_keys_total, 0);
    assert!(chaos.node_downtime_secs.iter().all(|&d| d == 0.0));
}

/// The headline acceptance scenario: one of two nodes crashes mid-run right
/// after the shared profile store loses nearly everything. Every admitted
/// job still completes; the evicted jobs resume from checkpoints on the
/// surviving node; the cold job's re-profiling blows its remaining budget
/// and degrades keys to the baseline plan.
#[test]
fn crash_with_corrupted_store_recovers_via_checkpoints_and_degradation() {
    let config = FleetConfig {
        node_count: 2,
        max_jobs_per_node: 2,
        checkpoint_interval: 1,
        ..FleetConfig::default()
    };

    // Size the fault window from a fault-free dry run: the crash must land
    // inside node 0's stepping phase (after its up-front profiling bill),
    // while residents have checkpoints to lose.
    let dry = dcgan_fleet(&config, 4, 6).run();
    let node0_jobs: Vec<_> = dry.jobs.iter().filter(|j| j.node == 0).collect();
    assert!(!node0_jobs.is_empty());
    let prof_end: f64 = node0_jobs.iter().map(|j| j.profiling_secs).sum();
    let drain: f64 = node0_jobs
        .iter()
        .map(|j| j.completed_at)
        .fold(0.0, f64::max);
    assert!(drain > prof_end, "node 0 must have a stepping phase");
    let crash_at = 0.5 * (prof_end + drain);
    let cold_profile = dry
        .jobs
        .iter()
        .map(|j| j.profiling_steps)
        .max()
        .expect("someone profiled cold");
    assert!(cold_profile > 0);

    let plan = FaultPlan {
        events: vec![
            // The store loses (almost) everything just before the crash, so
            // re-admitted jobs cannot warm-start.
            FaultEvent::StoreCorruption {
                at: crash_at * 0.99,
                drop_fraction: 1.0,
            },
            FaultEvent::NodeCrash {
                node: 0,
                at: crash_at,
                down_secs: drain, // node 0 stays down for the rest of the run
            },
        ],
        // Enough for one cold profile plus a little, but nowhere near two:
        // the cold job's post-corruption re-profile must truncate.
        profiling_step_budget: Some(cold_profile + 4),
        seed: 99,
    };

    let run = |plan: FaultPlan| -> FleetReport {
        let mut fleet = dcgan_fleet(&config, 4, 6);
        fleet.set_fault_plan(plan);
        fleet.run()
    };
    let report = run(plan.clone());

    assert_eq!(
        report.jobs.len(),
        4,
        "every admitted job completes despite the crash"
    );
    assert!(
        report.jobs.iter().all(|j| j.steps == 6),
        "every job runs its full step count"
    );
    assert_eq!(report.faults_injected, 2);
    assert!(
        report.retries_total >= 1,
        "the crash must evict and re-admit residents"
    );
    assert!(
        report.checkpoint_restores_total >= 1,
        "at least one evicted job resumes from its checkpoint"
    );
    assert!(
        report.degraded_keys_total >= 1,
        "the budget-starved re-profile must degrade keys to the baseline plan"
    );
    assert!(
        report.node_downtime_secs[0] > 0.0,
        "the crashed node records downtime"
    );
    assert_eq!(report.node_downtime_secs[1], 0.0);
    // The re-admitted jobs finish on the surviving node.
    let retried: Vec<_> = report.jobs.iter().filter(|j| j.retries > 0).collect();
    assert!(!retried.is_empty());
    for j in &retried {
        assert_eq!(j.node, 1, "{}: must finish on the surviving node", j.name);
    }

    // Determinism: the same plan replays to a byte-identical report.
    let replay = run(plan);
    assert_eq!(report.to_json(), replay.to_json());
}

#[test]
fn straggling_node_is_avoided_until_it_recovers() {
    let config = FleetConfig {
        node_count: 2,
        max_jobs_per_node: 2,
        ..FleetConfig::default()
    };
    let baseline = dcgan_fleet(&config, 6, 3).run();
    let count = |r: &FleetReport, node: u32| r.jobs.iter().filter(|j| j.node == node).count();

    let mut fleet = dcgan_fleet(&config, 6, 3);
    fleet.set_fault_plan(FaultPlan {
        events: vec![FaultEvent::NodeSlowdown {
            node: 0,
            at: 0.0,
            factor: 4.0,
            duration_secs: baseline.makespan_secs * 50.0,
        }],
        profiling_step_budget: None,
        seed: 0,
    });
    let slowed = fleet.run();

    assert_eq!(slowed.jobs.len(), 6, "a straggler never loses jobs");
    assert!(
        slowed.makespan_secs > baseline.makespan_secs,
        "a 4x straggler must cost wall-clock time"
    );
    assert!(
        count(&slowed, 1) > count(&slowed, 0),
        "the health probe must steer placements away from the straggler \
         (node 0: {}, node 1: {})",
        count(&slowed, 0),
        count(&slowed, 1)
    );
    assert_eq!(slowed.faults_injected, 1);
    assert!(
        slowed.node_downtime_secs.iter().all(|&d| d == 0.0),
        "slowdown is not downtime"
    );
}

#[test]
fn zero_profiling_budget_degrades_every_key_and_still_completes() {
    let config = FleetConfig {
        node_count: 2,
        ..FleetConfig::default()
    };
    let mut fleet = dcgan_fleet(&config, 4, 2);
    fleet.set_fault_plan(FaultPlan {
        events: Vec::new(),
        profiling_step_budget: Some(0),
        seed: 0,
    });
    let report = fleet.run();

    assert_eq!(report.jobs.len(), 4);
    assert_eq!(
        report.profiling_steps_total, 0,
        "a zero budget forbids all profiling"
    );
    assert!(
        report.degraded_keys_total > 0,
        "every tunable key falls back to the baseline plan"
    );
    assert!(
        report.jobs.iter().all(|j| j.steps == 2),
        "degraded jobs still train"
    );
    // Degradation costs per-step throughput versus fitted curves (the
    // baseline plan is never faster than the climbed one), though the run
    // as a whole may finish sooner because it skips profiling entirely.
    let fitted = dcgan_fleet(&config, 4, 2).run();
    let step_sum = |r: &FleetReport| r.jobs.iter().map(|j| j.step_secs).sum::<f64>();
    assert!(step_sum(&report) >= step_sum(&fitted));
}

#[test]
fn seeded_plans_replay_identically_and_seeds_differ() {
    let config = FleetConfig {
        node_count: 2,
        ..FleetConfig::default()
    };
    let horizon = dcgan_fleet(&config, 6, 4).run().makespan_secs;

    let run = |seed: u64| -> String {
        let mut fleet = dcgan_fleet(&config, 6, 4);
        fleet.set_fault_plan(FaultPlan::from_seed(seed, 2, horizon));
        fleet.run().to_json()
    };
    assert_eq!(run(99), run(99), "same seed, byte-identical report");
    assert_ne!(
        run(99),
        run(100),
        "different chaos seeds must produce different runs"
    );
}

/// `run()` drains through `tick()`, so a fleet drained by `run()` and one
/// drained by `while tick() {}` plus `report()` agree byte for byte, report
/// and sim event stream, under every fault plan. Crashes are where the two
/// could part: a node coming back from downtime frees slots that only a
/// placement on the next tick fills.
#[test]
fn run_and_tick_drains_agree_under_faults() {
    // (jobs, nodes, slots per node, steps per job)
    for (jobs, nodes, slots, steps) in [(12, 2, 2, 4), (8, 3, 1, 6), (6, 2, 1, 6)] {
        let config = FleetConfig {
            node_count: nodes,
            max_jobs_per_node: slots,
            checkpoint_interval: 1,
            ..FleetConfig::default()
        };
        let horizon = dcgan_fleet(&config, jobs, steps).run().makespan_secs;
        for seed in [1, 3, 9, 15, 99] {
            let drain = |by_run: bool| {
                let mut fleet = dcgan_fleet(&config, jobs, steps);
                fleet.set_fault_plan(FaultPlan::from_seed(seed, nodes, horizon));
                let report = if by_run {
                    fleet.run()
                } else {
                    while fleet.tick() {}
                    fleet.report()
                };
                (report.to_json(), fleet.obs().events_jsonl(Some(Clock::Sim)))
            };
            let (run, ticked) = (drain(true), drain(false));
            let case = format!("{jobs} jobs, {nodes} nodes x {slots} slots, seed {seed}");
            assert!(run.0 == ticked.0, "reports differ: {case}");
            assert!(run.1 == ticked.1, "sim event streams differ: {case}");
        }
    }
}

/// A checkpoint travels with its job: evicted twice before it writes the
/// next one, the job resumes from the same checkpoint both times.
#[test]
fn a_job_evicted_twice_resumes_from_its_checkpoint_both_times() {
    let config = FleetConfig {
        node_count: 2,
        max_jobs_per_node: 1,
        checkpoint_interval: 3,
        ..FleetConfig::default()
    };
    let dry = dcgan_fleet(&config, 1, 12).run();
    let (profiling, step) = (dry.jobs[0].profiling_secs, dry.jobs[0].step_secs);
    let retries = |events: Vec<FaultEvent>| {
        let mut fleet = dcgan_fleet(&config, 1, 12);
        fleet.set_fault_plan(FaultPlan {
            events,
            profiling_step_budget: None,
            seed: 0,
        });
        let report = fleet.run();
        let retried: Vec<_> = fleet
            .obs()
            .events_snapshot(Some(Clock::Sim))
            .into_iter()
            .filter(|e| e.kind == EventKind::Retry)
            .collect();
        (report, retried)
    };
    // Node 0 crashes after step 5, past the step-3 checkpoint.
    let first = FaultEvent::NodeCrash {
        node: 0,
        at: profiling + 4.5 * step,
        down_secs: 1.0,
    };
    let (_, once) = retries(vec![first.clone()]);
    assert_eq!(once.len(), 1);
    // The node that took the job back crashes two steps later, before the
    // step-6 checkpoint.
    let second = FaultEvent::NodeCrash {
        node: once[0].node.expect("a retry names its node"),
        at: once[0].at + 1.5 * step,
        down_secs: 1.0,
    };
    let (report, twice) = retries(vec![first, second]);
    let details: Vec<&str> = twice.iter().map(|e| e.detail.as_str()).collect();
    assert_eq!(details, ["resume from step 3", "resume from step 3"]);
    let job = &report.jobs[0];
    assert_eq!(
        (job.steps, job.retries, job.checkpoint_restores),
        (12, 2, 2)
    );
    assert_eq!(report.checkpoint_restores_total, 2);
}
