//! Pins the fleet's observable outputs across commits. `ci.sh` compares
//! two runs of one build, which catches nondeterminism but not a change
//! that moves every byte the same way in both runs; this test compares
//! against digests committed with the code.
//!
//! Each case is one output file: a `nnrt serve --json` report, the
//! `--events` JSONL stream, the full-history journal and store snapshot
//! of an in-process durable chaos run, or the report and recovery
//! accounting of a fleet recovered from that run's directory halfway
//! through. `fixtures/fleet_golden.txt` holds `case length fnv1a64` per
//! case. On a mismatch the failure names every case that moved and prints
//! the recomputed table.

use nnrt::prelude::*;
use nnrt::serve::{
    DurabilityConfig, FaultPlan, Fleet, FleetConfig, JobSpec, JournalRecord, JOURNAL_FILE,
    SNAPSHOT_FILE,
};
use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = include_str!("fixtures/fleet_golden.txt");

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fresh scratch directory, unique per test invocation.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nnrt-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the `nnrt` binary and returns its stdout, failing on a non-zero
/// exit.
fn nnrt(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_nnrt"))
        .args(args)
        .output()
        .expect("nnrt binary runs");
    assert!(
        out.status.success(),
        "nnrt {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn dcgan_fleet(config: FleetConfig, jobs: usize) -> Fleet {
    let g = dcgan(4).graph;
    let mut fleet = Fleet::new(config);
    for i in 0..jobs {
        fleet
            .submit(JobSpec {
                name: format!("dcgan-{i}"),
                model: "dcgan".to_string(),
                graph: g.clone(),
                steps: 4,
                priority: (i % 2) as u8,
                weight: 1.0,
            })
            .expect("queue sized for the workload");
    }
    fleet
}

/// The durable chaos fleet in `dir`: six dcgan jobs on two nodes, a seeded
/// fault plan, and no periodic flush, so the journal holds the whole
/// transition history.
fn durable_chaos_fleet(dir: &Path) -> Fleet {
    let horizon = dcgan_fleet(chaos_config(None), 6).run().makespan_secs;
    let mut fleet = dcgan_fleet(chaos_config(Some(dir)), 6);
    fleet.set_fault_plan(FaultPlan::from_seed(7, 2, horizon));
    fleet
}

fn chaos_config(dir: Option<&Path>) -> FleetConfig {
    FleetConfig {
        node_count: 2,
        checkpoint_interval: 1,
        durability: dir.map(|dir| {
            let mut durability = DurabilityConfig::new(dir);
            durability.flush_interval_secs = f64::INFINITY;
            durability
        }),
        ..FleetConfig::default()
    }
}

/// A durable chaos run read after the last tick and before the final
/// flush rotates the journal. Returns `(journal, store snapshot, ticks)`.
fn durable_chaos_run(dir: &Path) -> (Vec<u8>, Vec<u8>, usize) {
    let mut fleet = durable_chaos_fleet(dir);
    let mut ticks = 0;
    while fleet.tick() {
        ticks += 1;
    }
    let journal = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal exists");
    (journal, fleet.store().snapshot().into_bytes(), ticks)
}

/// Runs the durable chaos fleet for `ticks` ticks, recovers a second fleet
/// from a copy of its directory, and runs that to completion. Returns
/// `(recovered report JSON, RecoveryReport JSON)`.
///
/// The pinned `RecoveryReport` has `journal_records` zeroed: that field
/// counts records of the log format, whose bytes the journal case already
/// pins. Everything else in it (the job partition, the store keys, the
/// tail accounting) and the recovered run itself must not depend on how
/// the journal encodes its records.
fn recovered_chaos_run(dir: &Path, ticks: usize) -> (Vec<u8>, Vec<u8>) {
    let mut fleet = durable_chaos_fleet(dir);
    for _ in 0..ticks {
        assert!(fleet.tick(), "the run outlasts {ticks} ticks");
    }
    let copy = dir.join("copy");
    std::fs::create_dir_all(&copy).expect("create copy dir");
    for file in [JOURNAL_FILE, SNAPSHOT_FILE] {
        std::fs::copy(dir.join(file), copy.join(file)).expect("copy durable file");
    }
    let (mut recovered, mut recovery) =
        Fleet::recover(chaos_config(Some(&copy))).expect("the copy recovers");
    recovery.journal_records = 0;
    (
        recovered.run().to_json().into_bytes(),
        recovery.to_json().into_bytes(),
    )
}

/// `(case, length, digest)` for every pinned output.
fn computed() -> Vec<(String, usize, u64)> {
    let mut outputs: Vec<(&str, Vec<u8>)> = Vec::new();
    let dir = tmpdir("serve");
    let events = dir.join("events.jsonl");
    outputs.push((
        "serve-6-2-7.json",
        nnrt(&[
            "serve",
            "6",
            "2",
            "7",
            "--events",
            events.to_str().expect("utf-8 temp path"),
            "--json",
        ]),
    ));
    outputs.push((
        "serve-6-2-7.events.jsonl",
        std::fs::read(&events).expect("events written"),
    ));
    for (case, args) in [
        (
            "serve-4-2-7-gpu.json",
            &["serve", "4", "2", "7", "--backend", "gpu", "--json"][..],
        ),
        (
            "serve-4-2-7-cluster.json",
            &["serve", "4", "2", "7", "--backend", "cluster", "--json"][..],
        ),
        (
            "serve-8-2-7-chaos-99.json",
            &["serve", "8", "2", "7", "--chaos", "99", "--json"][..],
        ),
    ] {
        outputs.push((case, nnrt(args)));
    }
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmpdir("durable");
    let (journal, store, ticks) = durable_chaos_run(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let tags: Vec<&str> = nnrt::serve::replay(&journal)
        .records
        .iter()
        .map(JournalRecord::tag)
        .collect();
    for needed in ["evict", "retry"] {
        assert!(
            tags.contains(&needed),
            "the durable chaos run must journal a `{needed}` record"
        );
    }
    outputs.push(("durable-chaos.journal.log", journal));
    outputs.push(("durable-chaos.store.json", store));

    let dir = tmpdir("recovered");
    let (report, recovery) = recovered_chaos_run(&dir, ticks / 2);
    std::fs::remove_dir_all(&dir).ok();
    outputs.push(("durable-chaos.recovered.json", report));
    outputs.push(("durable-chaos.recovery.json", recovery));

    outputs
        .into_iter()
        .map(|(case, bytes)| (case.to_string(), bytes.len(), fnv1a(&bytes)))
        .collect()
}

#[test]
fn fleet_outputs_match_the_golden_digests() {
    let golden: Vec<(String, usize, u64)> = GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "malformed fixture line: {l:?}");
            let len = f[1].parse().expect("decimal length");
            let d = u64::from_str_radix(f[2], 16).expect("hex digest");
            (f[0].to_string(), len, d)
        })
        .collect();
    let rows = computed();
    let table: String = rows
        .iter()
        .map(|(c, len, d)| format!("{c} {len} {d:016x}\n"))
        .collect();
    assert_eq!(
        golden.iter().map(|g| &g.0).collect::<Vec<_>>(),
        rows.iter().map(|r| &r.0).collect::<Vec<_>>(),
        "fixture cases differ from the computed ones; recomputed table:\n{table}"
    );
    let moved: Vec<String> = rows
        .iter()
        .zip(&golden)
        .filter(|(r, g)| r != g)
        .map(|((c, len, d), (_, want_len, want))| {
            format!("{c}: got {len} bytes {d:016x}, want {want_len} bytes {want:016x}")
        })
        .collect();
    assert!(
        moved.is_empty(),
        "fleet outputs moved:\n{}\nrecomputed table:\n{table}",
        moved.join("\n")
    );
}
