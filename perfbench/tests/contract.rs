//! The benchmark's own checks: the metric names it prints match
//! `BENCHMARK.json`, a shrunk (`--smoke`) run of every workload passes its
//! output checks, and a corrupted reference digest makes the command fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use sigcomp_serve::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// Runs one smoke workload; returns the exit status and the result line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("running perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e}): {last}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), doc)
}

fn declared(section: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

fn emitted(doc: &Json) -> BTreeSet<String> {
    doc.get("metrics")
        .expect("metrics")
        .keys()
        .into_iter()
        .map(str::to_owned)
        .collect()
}

fn assert_passed(workload: &str, ok: bool, doc: &Json) {
    assert!(ok, "{workload}: exit status");
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        doc.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{workload}"
    );
}

#[test]
fn every_workload_smoke_run_passes_its_checks_and_prints_the_declared_metrics() {
    let names = declared("end_to_end");
    for workload in ["kernel-sweep", "trace-sweep", "serve-mix"] {
        let (ok, doc) = run(workload, false, &[]);
        assert_passed(workload, ok, &doc);
        assert_eq!(emitted(&doc), names, "{workload}: end-to-end metric names");
    }
}

#[test]
fn traced_run_prints_the_declared_per_layer_metrics() {
    let (ok, doc) = run("trace-sweep", true, &[]);
    assert_passed("trace-sweep --trace 1", ok, &doc);
    assert_eq!(emitted(&doc), declared("per_layer"));
}

#[test]
fn a_corrupted_reference_digest_fails_the_run() {
    let reference =
        std::fs::read_to_string(repo_root().join("perfbench/digests.txt")).expect("digests");
    let key = "kernel-sweep/smoke/cold.csv ";
    let line = reference
        .lines()
        .find(|l| l.starts_with(key))
        .expect("a smoke digest");
    let digest = &line[key.len()..];
    let flipped: String = digest.chars().rev().collect();
    assert_ne!(digest, flipped);
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted-digests.txt");
    std::fs::write(&path, reference.replace(line, &format!("{key}{flipped}")))
        .expect("writing the copy");
    let (ok, doc) = run(
        "kernel-sweep",
        false,
        &["--digests", path.to_str().expect("utf-8 path")],
    );
    assert!(!ok, "the run must exit nonzero");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
    assert!(doc.get("failed").and_then(Json::as_u64).unwrap_or(0) > 0);
}
