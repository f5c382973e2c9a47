//! The benchmark's own tests: every workload prints every named metric
//! with its unit on a short window, the metric tables agree with
//! `BENCHMARK.json`, and doctored results are reported as failed.

use std::path::Path;
use std::process::Command;

use desim::SimDuration;
use perfbench::bench::{self, END_TO_END, PER_LAYER};
use perfbench::run::{check_conservation, tally, ModelOutput, Sample};
use perfbench::workloads::{Spec, WorkloadId};

/// Runs the benchmark binary on a 5 ms window and returns its last
/// stdout line.
fn short_run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--measure-ms", "5"])
        .output()
        .expect("run the benchmark binary");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "description line plus result line");
    assert!(lines[0].starts_with("{\"perfbench\":{\"schema\":1,"));
    lines[1].to_string()
}

fn assert_reports(line: &str, table: &[(&str, &str)]) {
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    assert!(line.contains(",\"failed\":0,\"metrics\":{"), "{line}");
    for (name, unit) in table {
        let entry = format!("\"{name}\":{{\"value\":");
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at + entry.len()..];
        let value = &rest[..rest.find(',').expect("value then unit")];
        assert!(value.parse::<f64>().is_ok(), "{name}: {value}");
        assert!(
            rest.starts_with(&format!("{value},\"unit\":\"{unit}\"}}")),
            "{name} lacks unit {unit}"
        );
    }
    assert_eq!(line.matches("\"value\":").count(), table.len());
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WorkloadId::ALL {
        assert_reports(&short_run(w.name(), 0), &END_TO_END);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WorkloadId::ALL {
        assert_reports(&short_run(w.name(), 1), &PER_LAYER);
    }
}

#[test]
fn a_shorter_timed_window_is_checked_apart_from_the_model_run() {
    let mut spec = Spec::of(WorkloadId::TpccRw).with_measure_ms(10);
    spec.timed_measure = SimDuration::from_millis(5);
    let o = bench::untraced(&spec, 3, 0.1, || 0);
    assert!(o.failures.is_empty(), "{:?}", o.failures);
    assert_eq!(o.failed, 0);
    assert!(o.detail.starts_with("{\"repeats\":5,\"warmup_repeats\":2,"), "{}", o.detail);
    // The model metrics come from the full window: 100 krps over 10 ms
    // completes about a thousand requests, the 5 ms window half that.
    let rps = o.metrics.iter().find(|m| m.0 == "model_rps").expect("model_rps").2;
    assert!((80_000.0..120_000.0).contains(&rps), "{rps}");
    let timed = spec.timed();
    assert_eq!(timed.measure, SimDuration::from_millis(5));
    assert_eq!((timed.warmup, timed.offered_rps), (spec.warmup, spec.offered_rps));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload tpcc-rw --seed 1 --seconds 1 --trace 2",
        "--workload tpcc-rw --seed x --seconds 1 --trace 0",
        "--workload tpcc-rw --seed 1 --seconds 0 --trace 0",
        "--workload tpcc-rw --seed 1 --trace 0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn manifest_metrics(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list end")];
    let field = |obj: &str, f: &str| {
        let tag = format!("\"{f}\": \"");
        let at = obj.find(&tag).unwrap_or_else(|| panic!("{f} in {obj}")) + tag.len();
        obj[at..at + obj[at..].find('"').expect("string end")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(manifest_metrics(&json, "end_to_end"), own(&END_TO_END));
    assert_eq!(manifest_metrics(&json, "per_layer"), own(&PER_LAYER));
    for w in WorkloadId::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

fn output(arrivals: u64, completions: u64, drops: u64) -> ModelOutput {
    ModelOutput {
        arrivals,
        completions,
        drops,
        sheds: 0,
        aborts: 0,
        inflight_at_end: 0,
        window_completions: completions / 2,
        p50_ns: 5_000,
        p999_ns: 90_000,
    }
}

fn sample(model: ModelOutput, allocs: u64) -> Sample {
    Sample {
        build_ns: 1,
        new_ns: 1,
        run_ns: 1,
        run_cpu_ns: 1,
        allocs,
        model,
        failures: Vec::new(),
    }
}

#[test]
fn honest_repeats_pass() {
    let good = output(1_000, 900, 100);
    let (attempted, failed, lines) = tally(&good, Some(7), &[sample(good, 7), sample(good, 7)]);
    assert_eq!((attempted, failed), (2_000, 0));
    assert!(lines.is_empty(), "{lines:?}");
}

#[test]
fn broken_conservation_counts_the_repeat_as_failed() {
    let good = output(1_000, 900, 100);
    let broken = output(1_000, 900, 90);
    assert!(check_conservation(&broken.conservation()).is_some());
    let (attempted, failed, lines) = tally(&good, None, &[sample(good, 7), sample(broken, 7)]);
    assert_eq!((attempted, failed), (2_000, 1_000));
    assert!(
        lines.iter().any(|l| l.contains("conservation")),
        "{lines:?}"
    );
}

#[test]
fn mismatched_repeats_are_reported_as_failed() {
    let good = output(1_000, 900, 100);
    let mut moved = good;
    moved.p999_ns += 1;
    let (_, failed, lines) = tally(&good, None, &[sample(moved, 7)]);
    assert_eq!(failed, 1_000);
    assert!(lines.iter().any(|l| l.contains("model outputs differ")));

    let (_, failed, lines) = tally(&good, Some(7), &[sample(good, 8)]);
    assert_eq!(failed, 1_000);
    assert!(lines.iter().any(|l| l.contains("allocations")));
}

#[test]
fn a_repeat_that_failed_its_own_checks_is_failed() {
    let good = output(1_000, 900, 100);
    let mut s = sample(good, 7);
    s.failures
        .push("profiler: core worker0 tiles 1 ns of a 2 ns window".into());
    let (_, failed, lines) = tally(&good, None, &[s]);
    assert_eq!(failed, 1_000);
    assert_eq!(lines.len(), 1);
}
