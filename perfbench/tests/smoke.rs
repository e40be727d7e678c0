//! Quick-scale smoke of every workload: each prints every metric that
//! `BENCHMARK.json` lists, with its unit, and a wrong outcome counts as a
//! failed run.

use std::process::Command;

use awg_perfbench::workload::Workload;
use awg_perfbench::{run, Options};
use awg_sim::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_binary(workload: &str, trace: bool) -> (Vec<String>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(str::to_owned).collect();
    let result = json::parse(lines.last().expect("a result line")).expect("result line is JSON");
    (lines, result)
}

fn check_metrics(workload: &str, trace: bool, section: &str) -> Vec<String> {
    let (lines, result) = run_binary(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {lines:#?}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let expected = listed(section);
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{workload}: exactly the listed metrics"
    );
    for (name, unit) in expected {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{name}"
        );
        let printed = lines
            .iter()
            .any(|l| l.starts_with(&format!("{name}: ")) && l.contains(&format!(" {unit}")));
        assert!(printed, "{workload}: no `{name}: <value> {unit}` line");
    }
    assert!(
        lines.iter().any(|l| l.starts_with("identity: ")),
        "{workload}: identity line"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("failed_frac: 0 ")),
        "{workload}: failed_frac"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("host load ")),
        "{workload}: host load line"
    );
    lines
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in Workload::ALL {
        check_metrics(w.name(), false, "end_to_end");
    }
}

#[test]
fn every_traced_workload_prints_every_per_layer_metric() {
    for w in Workload::ALL {
        let lines = check_metrics(w.name(), true, "per_layer");
        assert!(lines.iter().any(|l| l.starts_with("trace overhead: ")));
        assert!(
            lines.iter().any(|l| l.starts_with("  gpu.run: ")),
            "self-time table"
        );
    }
}

#[test]
fn workload_names_match_benchmark_json() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

fn quick(workload: Workload, flip_expected: Option<usize>) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace: false,
        quick: true,
        flip_expected,
    }
}

#[test]
fn flipping_an_expected_outcome_trips_failed_frac() {
    // Cell 0 is a steady run that completes; cell 144 is the first
    // oversubscribed cell, Baseline on SPM_G, which deadlocks.
    for cell in [0, 144] {
        let r = run(&quick(Workload::Paper, Some(cell)));
        assert_eq!(r.failed, 1, "cell {cell}: {:#?}", r.lines);
        assert!(!r.correct);
        assert!(r
            .lines
            .iter()
            .any(|l| l.starts_with("failed_frac: ") && !l.starts_with("failed_frac: 0 ")));
    }
    let r = run(&quick(Workload::Checked, Some(0)));
    assert_eq!(r.failed, 1, "{:#?}", r.lines);
}

#[test]
fn same_seed_same_fingerprint_other_seed_other_inputs() {
    let identity = |seed| {
        let r = run(&Options {
            seed,
            ..quick(Workload::Litmus, None)
        });
        assert!(r.correct, "{:#?}", r.lines);
        r.lines
            .into_iter()
            .find(|l| l.starts_with("identity: "))
            .expect("identity line")
    };
    assert_eq!(identity(5), identity(5));
    assert_ne!(identity(5), identity(6));
}
