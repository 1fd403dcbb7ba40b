//! Runs every workload under `--smoke`, untraced and traced, through the
//! command's own one-child-per-workload mode, and checks the report against
//! `BENCHMARK.json`.

use serde::Deserialize;
use spackle_benchmark::run::RunResult;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

#[derive(Deserialize)]
struct Child {
    answers: String,
    result: RunResult,
}

#[derive(Deserialize)]
struct WorkloadReport {
    name: String,
    untraced: Child,
    traced: Child,
}

#[derive(Deserialize)]
struct Report {
    workloads: Vec<WorkloadReport>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
    #[serde(default)]
    unit: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

fn names_and_units(metrics: &[Named]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

fn reported(result: &RunResult) -> BTreeSet<(String, String)> {
    result
        .metrics
        .iter()
        .map(|(name, v)| (name.clone(), v.unit.clone()))
        .collect()
}

#[test]
fn smoke_run_checks_every_answer_and_reports_the_declared_metrics() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = dir.join("report.json");
    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .arg("--trace-out")
        .arg(&dir)
        .status()
        .expect("benchmark runs");
    assert!(status.success(), "benchmark exited with {status}");

    let report: Report =
        serde_json::from_str(&std::fs::read_to_string(&out).expect("report written"))
            .expect("report parses");
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let declared: Benchmark =
        serde_json::from_str(&std::fs::read_to_string(manifest).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

    let workloads: Vec<&str> = report.workloads.iter().map(|w| w.name.as_str()).collect();
    let declared_workloads: Vec<&str> =
        declared.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, declared_workloads);

    for w in &report.workloads {
        for (side, child) in [("untraced", &w.untraced), ("traced", &w.traced)] {
            let r = &child.result;
            assert!(
                r.correct && r.failed == 0,
                "{} {side}: {} of {} failed",
                w.name,
                r.failed,
                r.attempted
            );
            assert!(r.attempted > 0, "{} {side}: nothing attempted", w.name);
        }
        assert_eq!(
            w.untraced.answers, w.traced.answers,
            "{}: traced and untraced answers differ",
            w.name
        );
        assert_eq!(
            reported(&w.untraced.result),
            names_and_units(&declared.end_to_end),
            "{}",
            w.name
        );
        assert_eq!(
            reported(&w.traced.result),
            names_and_units(&declared.per_layer),
            "{}",
            w.name
        );
        assert!(
            dir.join(format!("trace-{}.jsonl", w.name)).exists(),
            "{}: trace spans written",
            w.name
        );
    }
}
