//! Durability integration tests: the write-ahead journal, the snapshot
//! consistency cut, and whole-process crash recovery.
//!
//! The centerpiece is the crash-point property test: a durable run is
//! recorded once, then recovery is exercised at *every* journal-record
//! boundary — each prefix is a legal `kill -9` instant, and from each one
//! the recovered fleet must complete exactly the jobs the journal had
//! admitted, with zero lost profile-store keys.

use nnrt::prelude::*;
use nnrt::sched::OpCatalog;
use nnrt::serve::{
    encode_record, replay, DurabilityConfig, Fleet, FleetConfig, JobSpec, JournalRecord,
    ProfileStore, RecoverError, StoreError, JOURNAL_FILE, JOURNAL_FORMAT, SNAPSHOT_FILE,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A fresh scratch directory, unique per test invocation.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nnrt-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn config_with(dir: Option<PathBuf>) -> FleetConfig {
    FleetConfig {
        node_count: 2,
        checkpoint_interval: 1,
        durability: dir.map(|dir| {
            let mut d = DurabilityConfig::new(dir);
            // No periodic flush: the journal alone carries the whole run,
            // so every record boundary is a meaningful crash point.
            d.flush_interval_secs = f64::INFINITY;
            d
        }),
        ..FleetConfig::default()
    }
}

fn submit_workload(fleet: &mut Fleet, jobs: usize) {
    let g = dcgan(4).graph;
    for i in 0..jobs {
        fleet
            .submit(JobSpec {
                name: format!("dcgan-{i}"),
                model: "dcgan".to_string(),
                graph: g.clone(),
                steps: 2,
                priority: (i % 2) as u8,
                weight: 1.0,
            })
            .expect("queue sized for the workload");
    }
}

/// Byte offsets of every record boundary in `bytes`, including 0 and the
/// full length.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0];
    let mut cursor = 0;
    while cursor < bytes.len() {
        let (_, used) =
            nnrt::serve::decode_record(&bytes[cursor..]).expect("recorded log is clean");
        cursor += used;
        offsets.push(cursor);
    }
    offsets
}

/// Records a complete durable run and returns
/// `(journal bytes, initial snapshot, baseline report JSON, job names,
/// final store snapshot)`. The journal is read *before* the final flush
/// rotates it, so it still holds the full transition history.
fn record_run(dir: &Path, jobs: usize) -> (Vec<u8>, String, String, BTreeSet<String>, String) {
    let mut fleet = Fleet::new(config_with(Some(dir.to_path_buf())));
    submit_workload(&mut fleet, jobs);
    while fleet.tick() {}
    let journal = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal exists");
    let initial_snapshot =
        std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).expect("snapshot exists");
    let report = fleet.run();
    let names: BTreeSet<String> = report.jobs.iter().map(|j| j.name.clone()).collect();
    let store = fleet.store().snapshot();
    (journal, initial_snapshot, report.to_json(), names, store)
}

#[test]
fn fault_free_durable_run_is_byte_identical_to_plain() {
    let dir = tmpdir("identity");
    let mut plain = Fleet::new(config_with(None));
    submit_workload(&mut plain, 4);
    let plain_report = plain.run().to_json();

    let mut durable = Fleet::new(config_with(Some(dir.clone())));
    submit_workload(&mut durable, 4);
    let durable_report = durable.run().to_json();

    assert_eq!(
        plain_report, durable_report,
        "journaling must be observationally free: byte-identical reports"
    );
    // The durable run left a consistent cut behind: a snapshot plus a
    // compacted journal whose completes cover the whole workload.
    let bytes = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal exists");
    let log = replay(&bytes);
    assert!(log.torn.is_none(), "graceful shutdown leaves a clean tail");
    let completes = log
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Complete { .. }))
        .count();
    assert_eq!(
        completes, 4,
        "the final rotation re-records every completion"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_succeeds_at_every_journal_record_boundary() {
    let dir = tmpdir("crashpoints");
    let (journal, initial_snapshot, _, all_names, final_store) = record_run(&dir, 3);
    let boundaries = record_boundaries(&journal);
    assert!(boundaries.len() > 10, "the run must leave a real history");
    let total_keys = OpCatalog::new(&dcgan(4).graph).keys().len();

    for (i, &cut) in boundaries.iter().enumerate() {
        let prefix = &journal[..cut];
        let crash_dir = tmpdir(&format!("crashpoint-{i}"));
        std::fs::write(crash_dir.join(JOURNAL_FILE), prefix).expect("write prefix");
        std::fs::write(crash_dir.join(SNAPSHOT_FILE), &initial_snapshot).expect("write snapshot");

        let (mut fleet, recovery) = Fleet::recover(config_with(Some(crash_dir.clone())))
            .unwrap_or_else(|e| panic!("crash point {i} (offset {cut}): recovery failed: {e}"));

        // Zero lost keys: the recovered store must hold exactly the
        // snapshot plus every journaled store delta in the prefix.
        let expected_store = ProfileStore::new();
        expected_store
            .restore(&initial_snapshot)
            .expect("initial snapshot restores");
        for record in &replay(prefix).records {
            match record {
                JournalRecord::StoreInsert { machine, profiles } => {
                    expected_store.insert_many(*machine, profiles);
                }
                JournalRecord::StorePublish {
                    machine,
                    touched,
                    profiles,
                } => expected_store.publish(*machine, touched, profiles),
                _ => {}
            }
        }
        assert_eq!(
            fleet.store().snapshot(),
            expected_store.snapshot(),
            "crash point {i}: recovered store must match snapshot + WAL deltas"
        );

        // The merged completed set must be exactly the jobs this prefix
        // had admitted — no losses, no duplicates, no inventions.
        let admitted: BTreeSet<String> = replay(prefix)
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Admit { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        let prior: BTreeSet<String> = recovery
            .jobs_completed
            .iter()
            .map(|j| j.name.clone())
            .collect();
        let report = fleet.run();
        // A resumed job counts its graph's keys like a fresh one.
        for j in report.jobs.iter().filter(|j| j.retries >= 1) {
            assert_eq!(
                j.total_keys, total_keys,
                "crash point {i}: resumed job {} must report its key count",
                j.name
            );
        }
        let resumed: BTreeSet<String> = report.jobs.iter().map(|j| j.name.clone()).collect();
        assert!(
            prior.is_disjoint(&resumed),
            "crash point {i}: a prior completion must not run again"
        );
        let merged: BTreeSet<String> = prior.union(&resumed).cloned().collect();
        assert_eq!(
            merged, admitted,
            "crash point {i}: merged completions must equal the admitted set"
        );
        std::fs::remove_dir_all(&crash_dir).ok();
    }

    // The final boundary is the full journal: recovery from it completes
    // the entire uninterrupted job set with the full store.
    let full_dir = tmpdir("crashpoint-full");
    std::fs::write(full_dir.join(JOURNAL_FILE), &journal).expect("write journal");
    std::fs::write(full_dir.join(SNAPSHOT_FILE), &initial_snapshot).expect("write snapshot");
    let (mut fleet, recovery) =
        Fleet::recover(config_with(Some(full_dir.clone()))).expect("full-journal recovery");
    let prior: BTreeSet<String> = recovery
        .jobs_completed
        .iter()
        .map(|j| j.name.clone())
        .collect();
    assert_eq!(prior, all_names, "every job had completed before the crash");
    assert_eq!(
        fleet.store().snapshot(),
        final_store,
        "zero lost profile-store keys after the full journal"
    );
    assert!(fleet.run().jobs.is_empty(), "nothing is left to re-run");
    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_placements_journal_touched_keys_not_curves() {
    let dir = tmpdir("warm-delta");
    let mut fleet = Fleet::new(config_with(Some(dir.clone())));
    let keys_of = |model: &str| {
        let batch = model.trim_start_matches("dcgan").parse().expect("batch");
        OpCatalog::new(&dcgan(batch).graph).keys().to_vec()
    };
    for (i, batch) in [4, 8, 4, 8, 4, 8].into_iter().enumerate() {
        fleet
            .submit(JobSpec {
                name: format!("dcgan{batch}-{i}"),
                model: format!("dcgan{batch}"),
                graph: dcgan(batch).graph,
                steps: 2,
                priority: 0,
                weight: 1.0,
            })
            .expect("queue sized for the workload");
    }
    // No periodic cut: the journal still holds every placement's record.
    while fleet.tick() {}
    let log = replay(&std::fs::read(dir.join(JOURNAL_FILE)).expect("journal exists"));
    let mut model_of = std::collections::HashMap::new();
    let mut placed = None;
    let mut seen = BTreeSet::new();
    let mut publications = 0;
    for record in &log.records {
        match record {
            JournalRecord::Admit { id, model, .. } => {
                model_of.insert(*id, model.clone());
            }
            JournalRecord::Place { id, .. } => placed = Some(*id),
            JournalRecord::StoreInsert { profiles, .. }
            | JournalRecord::StorePublish { profiles, .. } => {
                let id = placed.take().expect("a store record follows its placement");
                let model = &model_of[&id];
                if !seen.insert(model.clone()) {
                    assert!(
                        profiles.is_empty(),
                        "job {id}: a repeat {model} job journaled {} curves",
                        profiles.len()
                    );
                    let JournalRecord::StorePublish { touched, .. } = record else {
                        panic!("job {id}: a warm placement names its touched keys");
                    };
                    assert_eq!(touched, &keys_of(model), "every key was served warm");
                }
                publications += 1;
            }
            _ => {}
        }
    }
    assert_eq!(publications, 6, "one store record per placement");
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn a_cut_over_unchanged_contents_keeps_the_snapshot_file() {
    use std::os::unix::fs::MetadataExt;
    let dir = tmpdir("kept-snapshot");
    let inode = || {
        std::fs::metadata(dir.join(SNAPSHOT_FILE))
            .expect("snapshot exists")
            .ino()
    };
    let mut fleet = Fleet::new(config_with(Some(dir.clone())));
    let at_setup = inode();
    submit_workload(&mut fleet, 2);
    fleet.run();
    let written = inode();
    assert_ne!(at_setup, written, "new curves rewrite the snapshot");
    let text = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).expect("snapshot reads");

    // A second batch of the same model is served warm: its final cut
    // reuses the snapshot file instead of rewriting it.
    submit_workload(&mut fleet, 2);
    fleet.run();
    assert_eq!(
        inode(),
        written,
        "an unchanged store keeps its snapshot file"
    );
    let kept = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).expect("snapshot reads");
    assert_eq!(kept, text);
    assert_eq!(
        kept,
        fleet.store().snapshot(),
        "the kept snapshot is current"
    );

    let (recovered, recovery) =
        Fleet::recover(config_with(Some(dir.clone()))).expect("the cut recovers");
    assert_eq!(recovery.keys_restored, fleet.store().len());
    assert_eq!(
        recovered.store().snapshot(),
        fleet.store().snapshot(),
        "every key is restored"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_is_deterministic() {
    let dir = tmpdir("determinism");
    let (journal, initial_snapshot, _, _, _) = record_run(&dir, 3);
    // Cut mid-history so recovery has real work: jobs to resume or requeue.
    let boundaries = record_boundaries(&journal);
    let cut = boundaries[boundaries.len() / 2];

    let run_recovery = |tag: &str| -> (String, String) {
        let d = tmpdir(tag);
        std::fs::write(d.join(JOURNAL_FILE), &journal[..cut]).expect("write prefix");
        std::fs::write(d.join(SNAPSHOT_FILE), &initial_snapshot).expect("write snapshot");
        let (mut fleet, recovery) =
            Fleet::recover(config_with(Some(d.clone()))).expect("recovery succeeds");
        let out = (recovery.to_json(), fleet.run().to_json());
        std::fs::remove_dir_all(&d).ok();
        out
    };
    let (recovery_a, report_a) = run_recovery("determinism-a");
    let (recovery_b, report_b) = run_recovery("determinism-b");
    assert_eq!(
        recovery_a, recovery_b,
        "identical RecoveryReport accounting"
    );
    assert_eq!(report_a, report_b, "identical recovered-run report");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_report_partitions_the_admitted_jobs() {
    let dir = tmpdir("partition");
    let (journal, initial_snapshot, _, _, _) = record_run(&dir, 3);
    for &cut in record_boundaries(&journal).iter() {
        let d = tmpdir("partition-cut");
        std::fs::write(d.join(JOURNAL_FILE), &journal[..cut]).expect("write prefix");
        std::fs::write(d.join(SNAPSHOT_FILE), &initial_snapshot).expect("write snapshot");
        let (_, recovery) =
            Fleet::recover(config_with(Some(d.clone()))).expect("recovery succeeds");

        let admitted: BTreeSet<u64> = replay(&journal[..cut])
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Admit { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let resumed: BTreeSet<u64> = recovery.jobs_resumed.iter().copied().collect();
        let requeued: BTreeSet<u64> = recovery.jobs_requeued.iter().copied().collect();
        let completed: BTreeSet<u64> = recovery.jobs_completed.iter().map(|j| j.id).collect();
        assert!(resumed.is_disjoint(&requeued));
        assert!(resumed.is_disjoint(&completed));
        assert!(requeued.is_disjoint(&completed));
        let union: BTreeSet<u64> = resumed
            .union(&requeued)
            .copied()
            .collect::<BTreeSet<u64>>()
            .union(&completed)
            .copied()
            .collect();
        assert_eq!(
            union, admitted,
            "resumed + requeued + completed must partition the admitted set"
        );
        std::fs::remove_dir_all(&d).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_snapshot_is_a_typed_corrupt_error() {
    let dir = tmpdir("torn-snapshot");
    let (_, initial_snapshot, _, _, _) = record_run(&dir, 2);
    // A mid-write crash without the atomic rename would leave a prefix of
    // valid JSON; the typed error is what distinguishes "corrupt" from
    // "absent" for the operator.
    let torn = &initial_snapshot[..initial_snapshot.len() / 2];
    let store = ProfileStore::new();
    match store.restore(torn) {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("truncated snapshot must be Corrupt, got {other:?}"),
    }

    // The same torn bytes fail recovery with the snapshot error wrapped.
    std::fs::write(dir.join(SNAPSHOT_FILE), torn).expect("write torn snapshot");
    match Fleet::recover(config_with(Some(dir.clone()))) {
        Err(RecoverError::Snapshot(StoreError::Corrupt(_))) => {}
        Ok(_) => panic!("recovery must reject a torn snapshot"),
        Err(other) => panic!("expected Snapshot(Corrupt), got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_journal_tail_is_discarded_with_exact_accounting() {
    let dir = tmpdir("torn-journal");
    let (journal, initial_snapshot, _, _, _) = record_run(&dir, 2);
    let boundaries = record_boundaries(&journal);
    // Flip one bit inside the last record's payload: everything before it
    // replays, the flipped record and the rest of the log are the torn
    // tail.
    let last = boundaries[boundaries.len() - 2];
    let mut bytes = journal.clone();
    bytes[last + 13] ^= 0x40;

    let d = tmpdir("torn-journal-run");
    std::fs::write(d.join(JOURNAL_FILE), &bytes).expect("write journal");
    std::fs::write(d.join(SNAPSHOT_FILE), &initial_snapshot).expect("write snapshot");
    let (_, recovery) =
        Fleet::recover(config_with(Some(d.clone()))).expect("torn tail must not block recovery");
    assert!(
        recovery.torn_tail.is_some(),
        "the flipped record is reported as a torn tail"
    );
    assert_eq!(
        recovery.torn_bytes_discarded,
        (bytes.len() - last) as u64,
        "discarded-byte accounting is exact"
    );
    assert_eq!(
        recovery.journal_records,
        boundaries.len() - 3,
        "every record before the flip replays (header excluded from count)"
    );
    std::fs::remove_dir_all(&d).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dangling_graph_id_or_an_old_version_is_a_typed_journal_error() {
    let admit = JournalRecord::Admit {
        id: 0,
        name: "dcgan-0".to_string(),
        model: "dcgan".to_string(),
        steps: 2,
        priority: 0,
        weight: 1.0,
        graph: 9,
    };
    let mut graph = DataflowGraph::new();
    graph.add_op(OpKind::MatMul, Shape::mat(8, 8), &[]);
    let defined_elsewhere = JournalRecord::Graph { id: 3, graph };
    let old_header = JournalRecord::Header {
        format: JOURNAL_FORMAT.to_string(),
        version: 1,
    };
    for (case, records, needle) in [
        (
            "dangling",
            vec![JournalRecord::header(), defined_elsewhere, admit.clone()],
            "graph record 9",
        ),
        ("v1", vec![old_header, admit], "version 1 is not supported"),
    ] {
        let dir = tmpdir(case);
        let bytes: Vec<u8> = records.iter().flat_map(encode_record).collect();
        std::fs::write(dir.join(JOURNAL_FILE), bytes).expect("write journal");
        match Fleet::recover(config_with(Some(dir.clone()))) {
            Err(RecoverError::Journal(msg)) => {
                assert!(msg.contains(needle), "{case}: unexpected message {msg:?}")
            }
            Ok(_) => panic!("{case}: recovery must reject the journal"),
            Err(other) => panic!("{case}: expected RecoverError::Journal, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
