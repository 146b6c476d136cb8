//! Runs `--smoke`: all four workloads at 1/50 size against a real `idlog`
//! build, untraced and traced, every output checked.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_run_passes_every_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_idlog-benchmark"))
        .arg("--smoke")
        .current_dir(root)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.trim_end().ends_with("smoke: ok"),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in ["tc-batch", "idlog-batch", "serve-maintain", "serve-fresh"] {
        for trace in [0, 1] {
            assert!(
                stdout.contains(&format!("smoke {workload} trace={trace}:")),
                "{workload} trace={trace} did not run:\n{stdout}"
            );
        }
    }
}

#[test]
fn refuses_to_run_outside_a_checkout_and_rejects_unknown_arguments() {
    let bin = env!("CARGO_BIN_EXE_idlog-benchmark");
    let outside = Command::new(bin)
        .args(["--workload", "tc-batch", "--seconds", "1"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src"))
        .output()
        .expect("the benchmark binary runs");
    assert!(!outside.status.success());
    assert!(outside.stdout.is_empty(), "no result line without a run");
    for bad in [
        vec!["--workload", "nope"],
        vec!["--frobnicate"],
        vec!["--workload", "tc-batch", "--trace", "2"],
        vec![],
    ] {
        let out = Command::new(bin).args(&bad).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
}
