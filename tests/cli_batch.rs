//! The `nnrt` model commands bound their batch argument the way the RPC
//! server bounds a submission's: a batch outside `1..=MAX_BATCH` is a usage
//! error (exit 1) that names the limit, and no graph is built for it.

use nnrt::models::MAX_BATCH;
use std::process::Command;

/// Runs `nnrt` in the build's scratch directory, where `trace` writes its
/// file.
fn nnrt(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nnrt"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("nnrt binary runs")
}

#[test]
fn model_commands_refuse_out_of_range_batches() {
    let huge = (1u64 << 62).to_string();
    let over = (MAX_BATCH + 1).to_string();
    for cmd in ["compare", "profile", "grid", "plan", "trace"] {
        for (model, batch) in [("dcgan", "0"), ("dcgan", &over), ("resnet50", &huge)] {
            let out = nnrt(&[cmd, model, batch]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "nnrt {cmd} {model} {batch} must be a usage error; stderr: {stderr}"
            );
            assert!(
                stderr.contains(&MAX_BATCH.to_string()),
                "nnrt {cmd} {model} {batch}: message must name the limit: {stderr}"
            );
            assert!(
                out.stdout.is_empty(),
                "nnrt {cmd} {model} {batch} printed a report"
            );
        }
    }
}

#[test]
fn model_commands_accept_a_batch_in_range() {
    let out = nnrt(&["plan", "dcgan", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
