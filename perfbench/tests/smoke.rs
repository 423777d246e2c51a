//! Smoke tests: every workload, untraced and traced, on tiny inputs.
//!
//! They assert the output contract of the benchmark: the last line is the
//! result object, every metric `BENCHMARK.json` declares prints with its
//! declared unit, every correctness check runs and passes, and a second
//! seed yields the same metric names.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

use ncgws_core::snapshot::json::{self, JsonValue};

const WORKLOADS: [&str; 3] = ["table1", "wide-100k", "serve-durable"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// `(name, unit)` of the metrics BENCHMARK.json declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    let obj = doc.as_object().unwrap();
    json::get(obj, section)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let m = m.as_object().unwrap();
            let field = |k| {
                json::get(m, k)
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke invocation; returns the detail line and the result line.
fn run(workload: &str, seed: u64, trace: u8) -> (JsonValue, JsonValue) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--smoke"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: {stdout}");
    let result = json::parse(lines[lines.len() - 1]).unwrap();
    let detail = json::parse(lines[lines.len() - 2]).unwrap();
    let detail = json::get(detail.as_object().unwrap(), "detail")
        .unwrap()
        .clone();
    (detail, result)
}

fn metric_names(result: &JsonValue) -> Vec<String> {
    let obj = result.as_object().unwrap();
    let metrics = json::get(obj, "metrics")
        .and_then(JsonValue::as_object)
        .unwrap();
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

/// Checks one run's result and detail; returns the names of the checks
/// that ran.
fn assert_run(workload: &str, trace: u8, detail: &JsonValue, result: &JsonValue) -> Vec<String> {
    let obj = result.as_object().unwrap();
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    let checks = json::get(detail.as_object().unwrap(), "checks").unwrap();
    assert_eq!(
        json::get(obj, "correct").and_then(JsonValue::as_bool),
        Some(true),
        "{workload} trace {trace}: {checks:?}"
    );
    assert!(
        json::get(obj, "attempted")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1
    );
    assert_eq!(
        json::get(obj, "failed").and_then(JsonValue::as_u64),
        Some(0)
    );

    let section = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    let metrics = json::get(obj, "metrics")
        .and_then(JsonValue::as_object)
        .unwrap();
    let want = declared(section);
    assert_eq!(
        metrics.len(),
        want.len(),
        "{workload}: exactly the declared metrics"
    );
    for (name, unit) in want {
        let m = json::get(metrics, &name)
            .and_then(JsonValue::as_object)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            json::get(m, "unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = json::get(m, "value").and_then(JsonValue::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
    }

    let runs = json::get(checks.as_object().unwrap(), "runs")
        .and_then(JsonValue::as_object)
        .unwrap();
    runs.iter()
        .filter(|(_, v)| {
            json::get(v.as_object().unwrap(), "evaluated").and_then(JsonValue::as_u64) > Some(0)
        })
        .map(|(k, _)| k.clone())
        .collect()
}

fn assert_checks_ran(workload: &str, ran: &[String], expected: &[&str]) {
    for name in expected {
        assert!(
            ran.iter().any(|r| r == name),
            "{workload}: check {name} did not run: {ran:?}"
        );
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric_and_run_every_check() {
    for workload in WORKLOADS {
        let (detail, result) = run(workload, 1, 0);
        let ran = assert_run(workload, 0, &detail, &result);
        let mut expected = vec![
            "weak_duality",
            "feasible",
            "repeat_identical",
            "metrics_complete",
        ];
        match workload {
            "serve-durable" => {
                expected.extend(["no_lost_jobs", "served_equals_cold", "served_feasible"])
            }
            _ => expected.push("regenerate_identical"),
        }
        assert_checks_ran(workload, &ran, &expected);
        let host = json::get(detail.as_object().unwrap(), "host").and_then(JsonValue::as_object);
        for field in ["cpu_model", "nproc", "isa", "features", "rustc"] {
            assert!(
                host.and_then(|h| json::get(h, field)).is_some(),
                "host.{field}"
            );
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_run_the_layer_checks() {
    for workload in WORKLOADS {
        let (detail, result) = run(workload, 1, 1);
        let ran = assert_run(workload, 1, &detail, &result);
        assert_checks_ran(
            workload,
            &ran,
            &[
                "builder_roundtrip",
                "coupling_split",
                "snapshot_roundtrip",
                "store_roundtrip",
                "no_lost_jobs",
                "served_feasible",
                "metrics_complete",
            ],
        );
    }
}

#[test]
fn a_second_seed_gives_the_same_metric_names_and_passes() {
    for workload in WORKLOADS {
        let (d1, r1) = run(workload, 1, 0);
        let (d2, r2) = run(workload, 2, 0);
        assert_run(workload, 0, &d1, &r1);
        assert_run(workload, 0, &d2, &r2);
        assert_eq!(metric_names(&r1), metric_names(&r2), "{workload}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
