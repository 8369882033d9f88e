//! Tiny-scale self-test of the benchmark: every workload in
//! `BENCHMARK.json` runs, prints every metric the file names with its
//! unit, and checks its outputs without a failure — at the default seed
//! and at one held-out seed.

use serde::Value;
use std::path::Path;
use std::process::Command;

/// A seed no tuning run used.
const HELD_OUT_SEED: &str = "7919";

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde::json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of the spec.
fn metric_list(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one tiny benchmark and return its result line.
fn run(workload: &str, seed: Option<&str>, trace: bool) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fxbench"));
    cmd.args(["--workload", workload, "--seconds", "0", "--scale", "tiny"]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seed) = seed {
        cmd.args(["--seed", seed]);
    }
    let out = cmd.output().expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde::json::parse(last).expect("the result line is JSON")
}

fn check_result(result: &Value, expected: &[(String, String)], what: &str) {
    let Value::Object(fields) = result else {
        panic!("{what}: result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64) >= Some(1),
        "{what}"
    );
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want, "{what}: metric names");
    for ((name, unit), (_, m)) in expected.iter().zip(metrics) {
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let spec = spec();
    let end_to_end = metric_list(&spec, "end_to_end");
    let per_layer = metric_list(&spec, "per_layer");
    let workloads = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert!(!workloads.is_empty());
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        for seed in [None, Some(HELD_OUT_SEED)] {
            let what = format!("{name} seed {seed:?} untraced");
            let result = run(name, seed, false);
            check_result(&result, &end_to_end, &what);
            for (metric, _) in &end_to_end {
                let v = result
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .expect("value");
                assert!(v > 0.0, "{what}: end-to-end {metric} must never be 0");
            }
        }
        check_result(
            &run(name, None, true),
            &per_layer,
            &format!("{name} traced"),
        );
    }
}
