//! The command line: smoke runs print every metric of `BENCHMARK.json`
//! with its unit, and the summary line has the documented shape.

use std::path::PathBuf;
use std::process::{Command, Output};

use coarse_simcore::json::JsonValue;

fn benchmark_json() -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn perfbench(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(args.join("_"));
    std::fs::create_dir_all(&dir).expect("a working directory for the run");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("perfbench runs")
}

/// Checks a single-workload smoke run against the metric list under `key`.
fn check_smoke(workload: &str, trace: &str, key: &str) {
    let out = perfbench(&["--workload", workload, "--trace", trace, "--smoke"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = JsonValue::parse(stdout.lines().last().expect("a summary line"))
        .expect("the summary line is JSON");
    assert_eq!(
        summary.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    let attempted = summary.get("attempted").and_then(JsonValue::as_u64);
    assert!(attempted >= Some(1), "attempted {attempted:?}");
    assert_eq!(summary.get("failed").and_then(JsonValue::as_u64), Some(0));
    let metrics = summary.get("metrics").expect("metrics");
    let expected = benchmark_json();
    let expected = expected
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list");
    let JsonValue::Object(reported) = metrics else {
        panic!("metrics is an object");
    };
    assert_eq!(reported.len(), expected.len(), "{workload}: metric count");
    for m in expected {
        let name = m.get("name").and_then(JsonValue::as_str).expect("name");
        let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            got.get("unit").and_then(JsonValue::as_str),
            Some(unit),
            "{name}"
        );
        let value = got.get("value").and_then(JsonValue::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
        assert!(
            stdout.contains(&format!("{workload} {name} ")),
            "{name} has no metric line"
        );
    }
}

#[test]
fn smoke_run_prints_every_end_to_end_metric() {
    check_smoke("paper", "0", "end_to_end");
}

#[test]
fn smoke_trace_prints_every_per_layer_metric() {
    check_smoke("recovery", "1", "per_layer");
}

#[test]
fn usage_errors_exit_2_without_a_summary() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seed"],
        &["--seconds", "-1"],
        &["--bogus", "1"],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
