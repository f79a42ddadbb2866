//! Drives the built `bench` binary in `--smoke` mode (simulated durations
//! ÷ 20): all four workloads, the traced path, the result-line schema the
//! benchmark contract fixes, the span file, and `compare`.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "relay_star",
    "churn_mesh",
    "mixed_mesh",
    "fault_sweep_observed",
];

fn bench(args: &[&str], out: &Path) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn bench");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("UTF-8 output"),
    )
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Metric names listed under `key` in `BENCHMARK.json`, in order.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect(path);
    let section = text.split(&format!("\"{key}\"")).nth(1).expect(key);
    let section = &section[..section.find(']').expect("list end")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

/// Checks one contract line: exactly the four keys, and exactly `names` as
/// metrics, each with a numeric value and a unit.
fn assert_contract_line(line: &str, names: &[String]) {
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    assert!(line.contains("\"failed\":0,\"metrics\":{"), "{line}");
    let mut rest = &line[line.find("\"metrics\":{").unwrap() + 11..];
    for name in names {
        let head = format!("\"{name}\":{{\"value\":");
        assert!(rest.starts_with(&head), "expected {name} at {rest:.60}");
        rest = &rest[head.len()..];
        let end = rest.find(',').expect("value end");
        let value: f64 = rest[..end].parse().expect("numeric value");
        assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
        rest = &rest[rest.find('}').expect("metric end") + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    assert_eq!(rest, "}}", "unexpected extra metrics");
}

#[test]
fn smoke_runs_every_workload_untraced_and_traced() {
    let out = out_dir("smoke-single");
    let e2e = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert_eq!(e2e.len(), 3);
    assert_eq!(per_layer.len(), 58);
    for workload in WORKLOADS {
        for (trace, names) in [("0", &e2e), ("1", &per_layer)] {
            // Seed 7 is pinned, so the held-out world's digest is checked too.
            let (ok, stdout) = bench(
                &[
                    "run",
                    "--smoke",
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--trace",
                    trace,
                ],
                &out,
            );
            assert!(ok, "{workload} trace {trace}:\n{stdout}");
            assert_contract_line(stdout.lines().last().expect("output"), names);
        }
        let spans =
            std::fs::read_to_string(out.join(format!("trace-{workload}.json"))).expect("span file");
        for name in ["workload.run", "setup", "run.slice", "extract", "render"] {
            assert!(
                spans.contains(&format!("\"name\":\"{name}\"")),
                "{workload}: no {name} span"
            );
        }
    }
}

#[test]
fn smoke_run_all_writes_results_that_compare_clean_against_themselves() {
    let out = out_dir("smoke-all");
    let (ok, stdout) = bench(&["run", "--smoke", "--repeats", "2"], &out);
    assert!(ok, "{stdout}");
    for workload in WORKLOADS {
        assert!(stdout.contains(&format!("{workload} (n = 2)")), "{stdout}");
    }
    for metric in ["wall_s", "setup_s", "peak_rss_mib", "ops", "ops_failed"] {
        assert_eq!(
            stdout.matches(&format!("  {metric} ")).count(),
            4,
            "{metric}:\n{stdout}"
        );
    }
    let results = out.join("results.json");
    let results = results.to_str().expect("UTF-8 path");
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["compare", results, results])
        .output()
        .expect("spawn bench");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{text}");
    assert!(
        text.ends_with("PASS\n") && !text.contains("DIFFERS"),
        "{text}"
    );
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["run", "--seed"],
        &["frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .expect("spawn bench");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
