//! The `repro` binary's argument surface, driven as a subprocess.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn list_prints_the_registry_in_report_order() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
        .collect();
    assert_eq!(
        names,
        [
            "rounds",
            "fig6",
            "fig7",
            "relay",
            "census",
            "fig1",
            "resync",
            "partition",
            "ablation",
            "resilience",
            "forkstress"
        ]
    );
    assert!(stdout.contains("Fig. 10 block relay delay; Fig. 11 tx relay delay"));
}

/// `paper` was retired (it silently meant `scaled` for ten experiments);
/// asking for it must fail loudly and name what exists.
#[test]
fn retired_paper_scale_is_an_error_listing_the_valid_scales() {
    let out = repro(&["--scale", "paper", "rounds"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--scale must be one of: quick, scaled, full"),
        "{stderr}"
    );
}

/// A fresh scratch directory for one test (removed first: a previous,
/// failed run may have left it behind).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bitsync_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, as sorted `/`-separated relative paths.
fn files_under(dir: &Path) -> Vec<String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("read bundle directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("path under root");
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// The unsigned integer after the first `"key": ` at or after `from`
/// (`bitsync-json` writes, it does not parse).
fn number_after(text: &str, from: &str, key: &str) -> u64 {
    let tail = &text[text
        .find(from)
        .unwrap_or_else(|| panic!("no {from} in {text}"))..];
    let needle = format!("\"{key}\": ");
    let at = tail
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} after {from}"));
    let digits: String = tail[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("an unsigned integer")
}

/// The instrumented quick `rounds relay` bundle the layout tests share.
fn bundle(dir: &Path, threads: &str) -> std::process::Output {
    let dir = dir.to_str().expect("utf-8 temp path");
    repro(&[
        "--scale",
        "quick",
        "--threads",
        threads,
        "--out",
        dir,
        "--trace",
        "--sample-interval",
        "60",
        "rounds",
        "relay",
    ])
}

#[test]
fn out_writes_exactly_the_documented_layout() {
    let dir = scratch("layout");
    let out = bundle(&dir, "1");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let per_experiment = [
        "attribution.json",
        "attribution.txt",
        "metrics.txt",
        "perf.jsonl",
        "report.json",
        "report.txt",
        "timeseries.csv",
        "timeseries.jsonl",
        "trace/addr.jsonl",
        "trace/dial.jsonl",
        "trace/relay.jsonl",
    ];
    let mut expected = vec!["manifest.json".to_string(), "perf.json".to_string()];
    for name in ["relay", "rounds"] {
        expected.extend(per_experiment.iter().map(|f| format!("{name}/{f}")));
    }
    expected.sort();
    assert_eq!(files_under(&dir), expected);

    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    for name in ["rounds", "relay"] {
        let report = std::fs::read_to_string(dir.join(name).join("report.json")).unwrap();
        let events = number_after(&report, "\"counters\"", "sim.events_processed");
        assert!(events > 0, "{name}");
        let section = format!("\"{name}\": {{");
        assert_eq!(number_after(&manifest, &section, "sim_events"), events);
        // stdout is the text reports, with or without a bundle.
        let text = std::fs::read_to_string(dir.join(name).join("report.txt")).unwrap();
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(&text),
            "{name}"
        );
    }
    assert!(
        !manifest.contains("threads"),
        "manifest must not vary with --threads"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `perf.*` rule: those files are wall clock, every other file —
/// `manifest.json` included — is byte-identical at any thread count.
#[test]
fn bundles_differ_across_thread_counts_only_in_perf_files() {
    let (t1, t4) = (scratch("t1"), scratch("t4"));
    assert!(bundle(&t1, "1").status.success());
    assert!(bundle(&t4, "4").status.success());
    let files = files_under(&t1);
    assert_eq!(files, files_under(&t4));
    for f in &files {
        let is_perf = f.rsplit('/').next().is_some_and(|n| n.starts_with("perf."));
        if !is_perf {
            let (a, b) = (std::fs::read(t1.join(f)), std::fs::read(t4.join(f)));
            assert!(
                a.unwrap() == b.unwrap(),
                "{f} differs between --threads 1 and 4"
            );
        }
    }
    assert!(files.iter().any(|f| f == "perf.json"));
    std::fs::remove_dir_all(&t1).unwrap();
    std::fs::remove_dir_all(&t4).unwrap();
}

/// The six flags the bundle replaced are gone, not aliased.
#[test]
fn retired_output_flags_are_unknown_flags() {
    for flag in [
        "--json",
        "--metrics",
        "--trace-cap",
        "--timeseries",
        "--profile",
    ] {
        let out = repro(&["--scale", "quick", flag, "x", "rounds"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: repro [--list]"), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag} ran something");
    }
    // `--trace` lost its DIR argument: the instruments need the bundle.
    for args in [
        &["--scale", "quick", "--trace", "rounds"][..],
        &["--scale", "quick", "--sample-interval", "60", "rounds"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("require --out DIR"), "{stderr}");
    }
}

#[test]
fn out_under_a_regular_file_is_an_error_before_anything_runs() {
    let dir = scratch("notadir");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("file");
    std::fs::write(&file, "").unwrap();
    let target = file.join("bundle");
    let out = repro(&[
        "--scale",
        "quick",
        "--out",
        target.to_str().unwrap(),
        "rounds",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot create {}", target.display())),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "ran an experiment: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Quick `rounds` lives less than one 600 s interval: the empty series is
/// a simulator-health warning, in the manifest and on stderr.
#[test]
fn zero_timeseries_rows_is_a_warning_in_manifest_and_on_stderr() {
    let dir = scratch("zerorows");
    let out = repro(&[
        "--scale",
        "quick",
        "--out",
        dir.to_str().unwrap(),
        "--sample-interval",
        "600",
        "rounds",
    ]);
    assert!(out.status.success());
    let warning = "0 timeseries rows: no world lived a full 600 s sample interval";
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("warning: rounds: {warning}")),
        "{stderr}"
    );
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains(warning), "{manifest}");
    assert_eq!(
        number_after(&manifest, "\"rounds\": {", "timeseries_rows"),
        0
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
