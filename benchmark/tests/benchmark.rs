//! Smoke test: every workload at `--smoke` size, untraced and traced.
//!
//! Checks that every metric `BENCHMARK.json` names is printed with its unit
//! on every workload, that the output checks pass, and that the traced
//! decomposition writes the same output digest as the untraced run.

use serde_json::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected a list, got {other:?}"),
    }
}

/// (name, unit) of the metrics listed under `key`.
fn metrics(doc: &Value, key: &str) -> Vec<(String, String)> {
    list(doc, key)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cloudy-bench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.success(), stdout)
}

fn last_json(stdout: &str) -> Value {
    let last = stdout.lines().last().expect("output has a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn assert_clean(result: &Value) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{result:?}"
    );
    assert_eq!(result.get("failed"), Some(&Value::UInt(0)), "{result:?}");
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks_untraced_and_traced() {
    let doc = benchmark_json();
    let dir = format!("{}/smoke-trace", env!("CARGO_TARGET_TMPDIR"));
    let (ok, stdout) = run(&[
        "--workload",
        "all",
        "--smoke",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--trace-dir",
        &dir,
    ]);
    assert!(ok, "benchmark failed:\n{stdout}");
    assert_clean(&last_json(&stdout));

    let report_line = stdout
        .lines()
        .rev()
        .nth(1)
        .expect("a report document before the result line");
    let report: Value = serde_json::from_str(report_line).expect("the report document is JSON");
    let all_metrics = [metrics(&doc, "end_to_end"), metrics(&doc, "per_layer")].concat();
    for w in list(&doc, "workloads") {
        let name = text(w, "name");
        for (metric, unit) in &all_metrics {
            let printed = stdout.lines().any(|l| {
                let f: Vec<&str> = l.split(' ').collect();
                f.len() == 4
                    && f[0] == name
                    && f[1] == metric
                    && f[3] == unit
                    && f[2].parse::<f64>().is_ok()
            });
            assert!(
                printed,
                "{name}: no `{name} {metric} <value> {unit}` line in\n{stdout}"
            );
        }
        // Traced and untraced repetitions all wrote one and the same output.
        let entry = report
            .get("workloads")
            .and_then(|ws| ws.get(name))
            .expect("workload in report");
        assert!(
            !text(entry, "digest").contains(','),
            "{name}: digests differ: {entry:?}"
        );
        assert!(
            matches!(entry.get("traced_reps"), Some(Value::UInt(n)) if *n > 0),
            "{entry:?}"
        );
        let written: Vec<String> = std::fs::read_dir(&dir)
            .expect("trace directory")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|f| f.starts_with(&format!("{name}-seed42-run")))
            .collect();
        assert!(
            written.iter().any(|f| f.ends_with(".trace.json")),
            "{name}: no trace in {written:?}"
        );
        assert!(
            written.iter().any(|f| f.ends_with(".selftime.txt")),
            "{name}: no table in {written:?}"
        );
    }
}

#[test]
fn a_single_workload_ends_with_exactly_the_end_to_end_metrics() {
    let doc = benchmark_json();
    let (ok, stdout) = run(&[
        "--workload",
        "campaign_fresh",
        "--seed",
        "7",
        "--smoke",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    assert!(ok, "benchmark failed:\n{stdout}");
    let result = last_json(&stdout);
    assert_clean(&result);
    let Some(Value::Object(printed)) = result.get("metrics") else {
        panic!("no metrics in {result:?}")
    };
    let want = metrics(&doc, "end_to_end");
    assert_eq!(printed.len(), want.len(), "{printed:?}");
    for (name, unit) in want {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(&name))
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(text(m, "unit"), unit);
        // An integral value (a peak RSS of exactly 60 MiB) parses as an integer.
        let positive = match m.get("value") {
            Some(Value::Float(v)) => *v > 0.0,
            Some(Value::UInt(v)) => *v > 0,
            _ => false,
        };
        assert!(positive, "{name}: {m:?}");
    }
}

#[test]
fn usage_errors_exit_2_without_a_result_line() {
    for args in [
        &["--workload", "serve"][..],
        &["--trace", "2"],
        &["--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cloudy-bench"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
