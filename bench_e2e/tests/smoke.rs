//! The benchmark's own test: each workload at the smoke size, untraced
//! and traced, prints every metric `BENCHMARK.json` names with its unit,
//! passes its output checks, compares stored output digests and fails no
//! op.

use std::process::Command;

use manta_store::json::{parse, JsonValue};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json is valid JSON");
    let metrics = doc
        .get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"));
    metrics
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("metric without `{k}`: {m:?}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_workloads_print_every_metric_and_fail_nothing() {
    for workload in ["audit", "edit", "serve"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
                .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
                .args(["--trace", trace, "--size", "smoke"])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let context = format!(
                "{workload} trace={trace}\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{context}");
            let last = stdout.lines().last().expect("some output");
            let result = parse(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{context}"
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(
                stdout.contains(" fail_rate 0 "),
                "fail_rate must be 0: {context}"
            );
            let compared: u64 = stdout
                .lines()
                .find_map(|l| l.split(" digests compared ").nth(1))
                .and_then(|n| n.trim().parse().ok())
                .unwrap_or_else(|| panic!("no digest count printed: {context}"));
            assert!(compared > 0, "no stored digest was compared: {context}");
            let metrics = result.get("metrics").expect("a metrics object");
            for (name, unit) in declared(section) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("`{name}` missing from the result: {context}"));
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str())
                );
                assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("metric {name} "))
                            && l.ends_with(&format!(" {unit}"))),
                    "`{name}` is not printed with its unit: {context}"
                );
            }
        }
    }
}
