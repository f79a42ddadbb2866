//! The `repro` binary's argument surface, driven as a subprocess.

use bitsync_json::Value;
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

/// The JSON document in the file at `path`.
fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    bitsync_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The member of `doc` reached by following `path` through nested objects.
fn at<'a>(doc: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(doc, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("no {key} on the way to {path:?}"))
    })
}

/// The key names of an object, in document order.
fn keys(v: &Value) -> Vec<&str> {
    let Value::Object(members) = v else {
        panic!("not an object: {v}");
    };
    members.iter().map(|(k, _)| k.as_str()).collect()
}

/// The `perf.*` rule: every other file is byte-identical in both bundles.
fn assert_same_outside_perf(a: &Path, b: &Path) {
    let files = files_under(a);
    assert_eq!(files, files_under(b));
    for f in &files {
        let is_perf = f.rsplit('/').next().is_some_and(|n| n.starts_with("perf."));
        if !is_perf {
            let (x, y) = (std::fs::read(a.join(f)), std::fs::read(b.join(f)));
            assert!(x.unwrap() == y.unwrap(), "{f} differs");
        }
    }
    assert!(files.iter().any(|f| f == "perf.json"));
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

    let manifest = read_json(&dir.join("manifest.json"));
    for name in ["rounds", "relay"] {
        let report = read_json(&dir.join(name).join("report.json"));
        let events = at(&report, &["metrics", "counters", "sim.events_processed"]).as_u64();
        assert!(events.is_some_and(|n| n > 0), "{name}");
        let filed = at(&manifest, &["experiments", name, "sim_events"]);
        assert_eq!(filed.as_u64(), events);
        // stdout is the text reports, with or without a bundle.
        let text = std::fs::read_to_string(dir.join(name).join("report.txt")).unwrap();
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(&text),
            "{name}"
        );
    }
    assert!(
        !manifest.to_string().contains("threads"),
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
    assert_same_outside_perf(&t1, &t4);
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
    let manifest = read_json(&dir.join("manifest.json"));
    let rounds = at(&manifest, &["experiments", "rounds"]);
    assert_eq!(at(rounds, &["warnings"]), &Value::from(vec![warning]));
    assert_eq!(at(rounds, &["timeseries_rows"]).as_u64(), Some(0));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `BENCH_repro.json` is a copied `perf.json`: a written one has exactly
/// its key names, at the top and per experiment.
#[test]
fn perf_json_has_exactly_the_bench_repro_key_names() {
    let dir = scratch("perfkeys");
    let out = repro(&[
        "--scale",
        "quick",
        "--out",
        dir.to_str().unwrap(),
        "rounds",
        "fig6",
    ]);
    assert!(out.status.success());
    let perf = read_json(&dir.join("perf.json"));
    let tracked = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_repro.json"));
    let mut expected = keys(&tracked);
    // Absent only where /proc is masked; the tracked file has it.
    if bitsync_sim::metrics::peak_rss_bytes().is_none() {
        expected.retain(|k| *k != "peak_rss_mib");
    }
    assert_eq!(keys(&perf), expected);
    assert_eq!(keys(at(&perf, &["experiments"])), ["rounds", "fig6"]);
    for name in ["rounds", "fig6"] {
        let exp = at(&perf, &["experiments", name]);
        assert_eq!(keys(exp), keys(at(&tracked, &["experiments", name])));
        assert!(at(exp, &["run_secs"]).as_f64().is_some_and(|s| s > 0.0));
        assert!(at(exp, &["sim_events"]).as_u64().is_some_and(|n| n > 0));
    }
    assert_eq!(at(&perf, &["threads"]).as_u64(), Some(1));
    assert!(at(&perf, &["wall_secs"]).as_f64().is_some_and(|s| s > 0.0));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The time-series plane at the paper's cadence: a sampled scaled `fig1`
/// files schema-valid rows for both years, a bundle byte-identical across
/// worker counts outside `perf.*`, an attribution over the paper's four
/// causes, and a manifest that counts the rows. (The attribution *table* is
/// pinned byte-exact by `tests/golden/fig1_attribution.txt`.)
#[test]
#[ignore = "two scaled fig1 runs take minutes; run with --ignored (CI slow-tests)"]
fn sampled_scaled_fig1_files_a_schema_valid_timeseries() {
    let (t1, t4) = (scratch("ts1"), scratch("ts4"));
    for (dir, threads) in [(&t1, "1"), (&t4, "4")] {
        let out = repro(&[
            "--scale",
            "scaled",
            "--seed",
            "2021",
            "--threads",
            threads,
            "--out",
            dir.to_str().unwrap(),
            "--sample-interval",
            "600",
            "fig1",
        ]);
        assert!(out.status.success());
    }
    assert_same_outside_perf(&t1, &t4);

    let jsonl = std::fs::read_to_string(t1.join("fig1/timeseries.jsonl")).unwrap();
    let rows: Vec<Value> = jsonl
        .lines()
        .map(|l| bitsync_json::parse(l).expect("one JSON object per line"))
        .collect();
    assert!(!rows.is_empty(), "no timeseries rows");
    let gauges = [
        "sync_frac",
        "honest_online",
        "outdeg_mean",
        "outdeg_min",
        "addr_unreach_new",
        "queue_depth",
        "events_w",
    ];
    let mut years = Vec::new();
    for row in &rows {
        assert!(at(row, &["t_ns"]).as_u64().is_some_and(|t| t > 0), "{row}");
        let ctx = at(row, &["ctx"]);
        if !years.contains(&ctx) {
            years.push(ctx);
        }
        for key in gauges {
            assert!(at(row, &[key]).as_f64().is_some(), "{key} in {row}");
        }
        let sync = at(row, &["sync_frac"]).as_f64().unwrap();
        assert!((0.0..=1.0).contains(&sync), "{row}");
        assert!(row.get("wall_secs").is_none(), "perf leaked into {row}");
    }
    assert_eq!(years, [&Value::from("y2019"), &Value::from("y2020")]);

    let attribution = read_json(&t1.join("fig1/attribution.json"));
    let intervals = at(&attribution, &["intervals"]).as_array().unwrap();
    assert!(!intervals.is_empty(), "no attribution intervals");
    let mut causes = keys(at(&attribution, &["drop_by_cause"]));
    causes.sort_unstable();
    assert_eq!(
        causes,
        ["addr_pollution", "churn", "relay_lag", "unreachable_load"]
    );
    let manifest = read_json(&t1.join("manifest.json"));
    let fig1 = at(&manifest, &["experiments", "fig1"]);
    assert_eq!(
        at(fig1, &["timeseries_rows"]).as_u64(),
        Some(rows.len() as u64)
    );
    assert_eq!(at(fig1, &["warnings"]), &Value::Array(vec![]));
    std::fs::remove_dir_all(&t1).unwrap();
    std::fs::remove_dir_all(&t4).unwrap();
}

/// A planted bug is caught (exit 1), and the repro file replays the scenario
/// it records: the replay fails too and runs the file's own seed, which
/// needs all 64 bits.
#[test]
fn planted_bug_repro_file_replays_its_own_seed() {
    let dir = scratch("replay");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fuzz-repro.json");
    let file_arg = file.to_str().unwrap();
    let campaign = [
        "fuzz",
        "--seed",
        "1",
        "--runs",
        "2",
        "--max-steps",
        "20000",
        "--fault",
        "duplicate-deliveries",
        "--out",
        file_arg,
    ];
    assert_eq!(repro(&campaign).status.code(), Some(1));
    let seed = at(&read_json(&file), &["seed"])
        .as_u64()
        .expect("an integer seed");
    assert_ne!(seed as f64 as u64, seed, "seed {seed} survives an f64");
    let replay = repro(&["fuzz", "--replay", file_arg]);
    assert_eq!(replay.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(
        stdout.contains(&format!("replayed {file_arg} (seed {seed})")),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
