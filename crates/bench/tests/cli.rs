//! The `repro` binary's argument surface and the bundles it files, driven
//! as a subprocess. The scaled goldens under `tests/golden/` are files of
//! one such bundle: [`scaled_bundle_matches_the_goldens`] files it and
//! compares, and `BLESS=1` copies it over them.

use bitsync_core::experiments::{experiment_names, experiment_seed, REGISTRY};
use bitsync_json::{first_difference, parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

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
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
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

/// Whether `file` (a bundle-relative path) is wall clock: the `perf.*` rule.
fn is_perf(file: &str) -> bool {
    file.rsplit('/')
        .next()
        .is_some_and(|n| n.starts_with("perf."))
}

/// Where two texts first differ, by line.
fn first_line_difference(x: &str, y: &str) -> String {
    let (xs, ys): (Vec<&str>, Vec<&str>) = (x.lines().collect(), y.lines().collect());
    let Some(i) = (0..xs.len().max(ys.len())).find(|&i| xs.get(i) != ys.get(i)) else {
        return "the same lines, ended differently".into();
    };
    let line = |lines: &[&str]| lines.get(i).copied().unwrap_or("<end of file>").to_string();
    format!("line {}: {} != {}", i + 1, line(&xs), line(&ys))
}

/// Where the texts of two versions of `file` first differ: a JSON file's
/// first differing path ([`first_difference`]), any other file's first
/// line.
fn file_difference(file: &str, x: &str, y: &str) -> String {
    if !file.ends_with(".json") {
        return first_line_difference(x, y);
    }
    match (parse(x), parse(y)) {
        (Ok(a), Ok(b)) => first_difference(&a, &b)
            .unwrap_or_else(|| "the same document, printed differently".into()),
        (a, b) => format!("an unparseable side: {:?} / {:?}", a.err(), b.err()),
    }
}

/// Panics at the first of `files` whose bytes differ under `a` and `b`,
/// naming the file and where it first differs ([`file_difference`]).
fn assert_same_files(a: &Path, b: &Path, files: &[String]) {
    for f in files {
        let read = |dir: &Path| std::fs::read_to_string(dir.join(f)).expect(f);
        let (x, y) = (read(a), read(b));
        if x != y {
            panic!("{f}: {}", file_difference(f, &x, &y));
        }
    }
}

/// The `perf.*` rule: both bundles hold the same files, and every one not
/// named `perf.*` is byte-identical.
fn assert_same_outside_perf(a: &Path, b: &Path) {
    let files = files_under(a);
    assert_eq!(files, files_under(b), "the bundles hold different files");
    assert!(files.iter().any(|f| f == "perf.json"));
    let deterministic: Vec<String> = files.into_iter().filter(|f| !is_perf(f)).collect();
    assert_same_files(a, b, &deterministic);
}

/// One `repro --out` run: the directory it filed and its stdout.
struct Filed {
    dir: PathBuf,
    stdout: String,
}

/// Runs `repro --threads THREADS --out DIR ARGS...`, which must succeed.
fn file_bundle(dir: PathBuf, threads: &str, args: &[&str]) -> Filed {
    let out_dir = dir.to_str().expect("utf-8 path");
    let out = repro(&[&["--threads", threads, "--out", out_dir], args].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro {args:?}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    Filed { dir, stdout }
}

/// Two runs that differ only in `--threads` file the same bundle outside
/// `perf.*` and print the same stdout below its header line (the one line
/// that names the thread count).
fn assert_thread_count_invariant(a: &Filed, b: &Filed) {
    assert_same_outside_perf(&a.dir, &b.dir);
    let body = |run: &Filed| run.stdout.split_once('\n').expect("a header").1.to_string();
    let (x, y) = (body(a), body(b));
    assert!(x == y, "stdout: {}", first_line_difference(&x, &y));
}

/// The determinism contract — a run's files are the same at any
/// `--threads`, and turning an instrument on changes no result — checked
/// once, over the whole quick registry: three `repro --scale quick all`
/// bundles, filed concurrently by the first test that asks and shared by
/// the tests below. They stay in the target directory's scratch space
/// after the run, so a failure names a file that can be inspected. What
/// each assertion replaces:
///
/// - [`quick_bundle_is_the_same_at_one_and_four_threads`] (`t1` vs `t4`:
///   file list, every non-`perf.*` file, stdout below its header):
///   `tests/determinism.rs::{serial_and_parallel_runs_are_byte_identical,
///   timeseries_exports_byte_identical_across_thread_counts}`,
///   `tests/trace_observability.rs::{trace_jsonl,truncated_trace_jsonl}_byte_identical_across_thread_counts`,
///   this file's `bundles_differ_across_thread_counts_only_in_perf_files`,
///   the `deterministic` unit tests of `stability`, `success_rate`,
///   `partition` and `resync`, and CI resilience-smoke's `diff -r` of the
///   `resilience` and `forkstress` bundles.
/// - [`instruments_change_no_stdout_and_no_report`] (`t1` vs `bare`):
///   `runner.rs::traced_relay_run_captures_relay_events_without_changing_json`.
/// - [`quick_bundle_traces_samples_and_counts_every_experiment`] (`t1`'s
///   files): trace events per experiment and all six categories from
///   `trace_jsonl_byte_identical_across_thread_counts`; an evicting ring
///   from `truncated_trace_jsonl_byte_identical_across_thread_counts`; sim
///   events from `determinism.rs::every_quick_experiment_reports_sim_event_metrics`;
///   timeseries rows, ctx labels, `sync_frac` and no `wall_secs` from
///   `timeseries_exports_byte_identical_across_thread_counts`; the relay
///   histogram from `relay_metrics_histogram_is_consistent_with_figure_output`;
///   no `threads` in the manifest from [`out_writes_exactly_the_documented_layout`].
/// - [`out_writes_exactly_the_documented_layout`] compares its `rounds
///   relay` run with `t1`: `determinism.rs::subset_runs_reuse_the_same_per_experiment_seed`.
struct QuickBundles {
    /// `--trace --sample-interval 60`, one thread.
    t1: Filed,
    /// The same at four threads.
    t4: Filed,
    /// No instrument, one thread.
    bare: Filed,
}

fn quick_bundles() -> &'static QuickBundles {
    static BUNDLES: OnceLock<QuickBundles> = OnceLock::new();
    BUNDLES.get_or_init(|| {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-bundles");
        let _ = std::fs::remove_dir_all(&root);
        let traced = [
            "--scale",
            "quick",
            "--trace",
            "--sample-interval",
            "60",
            "all",
        ];
        let file =
            |name: &str, threads: &str, args: &[&str]| file_bundle(root.join(name), threads, args);
        std::thread::scope(|s| {
            let t4 = s.spawn(|| file("t4", "4", &traced));
            let bare = s.spawn(|| file("bare", "1", &["--scale", "quick", "all"]));
            QuickBundles {
                t1: file("t1", "1", &traced),
                t4: t4.join().expect("the t4 bundle"),
                bare: bare.join().expect("the bare bundle"),
            }
        })
    })
}

#[test]
fn quick_bundle_is_the_same_at_one_and_four_threads() {
    let bundles = quick_bundles();
    assert_thread_count_invariant(&bundles.t1, &bundles.t4);
}

/// Every `report.json` is the same with and without `--trace
/// --sample-interval`: instruments only observe.
#[test]
fn instruments_change_no_stdout_and_no_report() {
    let QuickBundles { t1, bare, .. } = quick_bundles();
    let (x, y) = (&t1.stdout, &bare.stdout);
    assert!(x == y, "stdout: {}", first_line_difference(x, y));
    let reports: Vec<String> = experiment_names()
        .iter()
        .map(|name| format!("{name}/report.json"))
        .collect();
    assert_same_files(&t1.dir, &bare.dir, &reports);
}

#[test]
fn quick_bundle_traces_samples_and_counts_every_experiment() {
    let dir = &quick_bundles().t1.dir;
    let manifest = read_json(&dir.join("manifest.json"));
    assert!(
        !manifest.to_string().contains("threads"),
        "manifest must not vary with --threads"
    );
    let experiments = at(&manifest, &["experiments"]);
    let names = experiment_names();
    assert_eq!(keys(experiments), names);
    let (mut categories, mut evicted) = (Vec::new(), false);
    for name in names {
        let filed = at(experiments, &[name]);
        let report = read_json(&dir.join(name).join("report.json"));
        let counters = at(&report, &["metrics", "counters"]);
        let events = counters.get("sim.events_processed").and_then(Value::as_u64);
        assert_eq!(
            at(filed, &["sim_events"]).as_u64(),
            Some(events.unwrap_or(0))
        );
        assert!(
            name == "census" || events > Some(0),
            "{name}: no sim events"
        );
        let Value::Object(trace) = at(filed, &["trace"]) else {
            panic!("{name}: no trace counts");
        };
        let traced = |(_, counts): &(String, Value)| at(counts, &["events"]).as_u64() > Some(0);
        assert!(trace.iter().any(traced), "{name}: nothing traced");
        for (category, counts) in trace {
            categories.push(category.as_str());
            evicted |= at(counts, &["dropped"]).as_u64() > Some(0);
        }
        let rows = at(filed, &["timeseries_rows"]).as_u64();
        assert!(rows > Some(0), "{name}: no timeseries rows");
        let series = std::fs::read_to_string(dir.join(name).join("timeseries.jsonl")).unwrap();
        assert!(
            !series.contains("wall_secs"),
            "{name}: perf leaked into the timeseries"
        );
        // One perf row per deterministic row, paired by `(ctx, t_ns)`.
        let perf = std::fs::read_to_string(dir.join(name).join("perf.jsonl")).unwrap();
        let ticks = |jsonl: &str| -> Vec<(Option<Value>, u64)> {
            let row = |l: &str| {
                let row = parse(l).unwrap();
                (
                    row.get("ctx").cloned(),
                    at(&row, &["t_ns"]).as_u64().unwrap(),
                )
            };
            jsonl.lines().map(row).collect()
        };
        assert_eq!(ticks(&perf), ticks(&series), "{name}: perf rows");

        // The footprint's high-water by owner is the maximum of its gauge
        // column; the census builds no world and has none.
        let footprint = at(filed, &["footprint_bytes"]);
        if name == "census" {
            assert_eq!(footprint, &Value::Null);
            continue;
        }
        let owners = keys(footprint);
        assert_eq!(
            owners,
            [
                "total",
                "queue",
                "chains",
                "mempools",
                "addrmans",
                "peers",
                "known_invs",
                "relay_log"
            ],
            "{name}"
        );
        let high = |owner: &str| at(footprint, &[owner]).as_u64().unwrap();
        for owner in &owners[1..] {
            let column = series.lines().map(|row| {
                let row = parse(row).unwrap();
                at(&row, &[&format!("mem_{owner}")]).as_f64().unwrap() as u64
            });
            assert_eq!(column.max(), Some(high(owner)), "{name}: {owner}");
            assert!(high("total") >= high(owner), "{name}: {footprint}");
        }
    }
    categories.sort();
    categories.dedup();
    assert_eq!(
        categories,
        ["addr", "churn", "crawl", "dial", "relay", "reorg"]
    );
    assert!(evicted, "no trace ring evicted an event");

    // Multi-world experiments label each world's rows, and every row carries
    // the honest-sync gauge the root-cause decomposition needs.
    for (name, ctxs) in [
        ("fig1", &["y2019", "y2020"][..]),
        (
            "ablation",
            &["baseline (Core 0.20)", "all three refinements"],
        ),
        ("partition", &["before", "attack", "heal"]),
    ] {
        let series = std::fs::read_to_string(dir.join(name).join("timeseries.jsonl")).unwrap();
        let rows: Vec<Value> = series.lines().map(|l| parse(l).unwrap()).collect();
        for ctx in ctxs {
            let labelled = rows
                .iter()
                .any(|r| r.get("ctx") == Some(&Value::from(*ctx)));
            assert!(labelled, "{name} rows missing ctx {ctx}");
        }
        let synced = rows.iter().all(|r| r.get("sync_frac").is_some());
        assert!(synced, "{name} rows missing sync_frac");
    }

    // Every relayed object had at least one fresh send observed, so the
    // per-hop histogram counts at least as many delays as the figure. The
    // figure's per-object delays are debug.log-style (both endpoints whole
    // seconds), so its maximum exceeds the raw hop delay by at most 1 s.
    let relay = read_json(&dir.join("relay/report.json"));
    let delays = |key: &str| at(&relay, &["result", key]).as_array().unwrap().len();
    let (blocks, txs) = (delays("block_delays"), delays("tx_delays"));
    assert!(blocks > 0, "quick relay run must relay blocks");
    let hist = at(&relay, &["metrics", "histograms", "node.relay_delay_secs"]);
    let count = at(hist, &["count"]).as_u64().unwrap();
    assert!(
        count >= (blocks + txs) as u64,
        "{count} hops < {blocks} + {txs} objects"
    );
    let hist_max = at(hist, &["max"]).as_f64().unwrap();
    let fig_max = at(&relay, &["result", "block_summary", "max"])
        .as_f64()
        .unwrap();
    assert!(
        fig_max <= hist_max + 1.0,
        "figure max {fig_max} > hop max {hist_max} + 1 s"
    );
}

/// The instrumented quick `rounds relay` bundle: exactly the documented
/// files, and each experiment filed as the quick `all` bundle files it (a
/// subset run derives the same per-experiment seed).
#[test]
fn out_writes_exactly_the_documented_layout() {
    let args = ["--scale", "quick", "--trace", "--sample-interval", "60"];
    let run = file_bundle(
        scratch("layout"),
        "1",
        &[&args[..], &["rounds", "relay"]].concat(),
    );
    let dir = &run.dir;
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
    assert_eq!(files_under(dir), expected);

    let all = &quick_bundles().t1.dir;
    let [manifest, all_manifest] = [dir, all].map(|d| read_json(&d.join("manifest.json")));
    for name in ["rounds", "relay"] {
        let path = ["experiments", name];
        assert_eq!(at(&manifest, &path), at(&all_manifest, &path), "{name}");
        // stdout is the text reports, with or without a bundle.
        let text = std::fs::read_to_string(dir.join(name).join("report.txt")).unwrap();
        assert!(run.stdout.contains(&text), "{name}");
    }
    let rounds_seed = at(&manifest, &["experiments", "rounds", "seed"]).as_u64();
    assert_eq!(rounds_seed, Some(experiment_seed(2021, "rounds")));
    expected.retain(|f| f.contains('/') && !is_perf(f));
    assert_same_files(all, dir, &expected);
    std::fs::remove_dir_all(dir).unwrap();
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

/// `tests/golden/`, the tracked files of the golden bundle.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// The golden suite: one sampled scaled registry pass at the `repro`
/// defaults' seed, filed at four threads, whose files are the goldens —
/// each `<name>/report.json` is `tests/golden/<artifact>.json` (the
/// artifact name from the manifest) and `fig1/attribution.txt` is
/// `tests/golden/fig1_attribution.txt`, byte for byte. A report must not
/// depend on the thread count or the sampler, so the goldens hold for a
/// bare one-thread run too. Before comparing it checks the fig1 time
/// series' schema: rows for both years
/// carrying the root-cause gauges, an attribution over the paper's four
/// causes, and a manifest that counts the rows.
///
/// After an intentional change, `BLESS=1 cargo test --release -p
/// bitsync-bench --test cli -- --ignored scaled_bundle_matches_the_goldens`
/// copies the bundle's files over the goldens; review that diff like any
/// other. The bundle stays in the target directory's scratch space.
#[test]
#[ignore = "a scaled registry pass takes minutes; run with --ignored (CI slow-tests)"]
fn scaled_bundle_matches_the_goldens() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scaled-bundle");
    let _ = std::fs::remove_dir_all(&dir);
    let args: Vec<&str> = "--scale scaled --seed 2021 --sample-interval 600 all"
        .split(' ')
        .collect();
    let dir = file_bundle(dir, "4", &args).dir;

    let jsonl = std::fs::read_to_string(dir.join("fig1/timeseries.jsonl")).unwrap();
    let rows: Vec<Value> = jsonl
        .lines()
        .map(|l| parse(l).expect("one JSON object per line"))
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
    let attribution = read_json(&dir.join("fig1/attribution.json"));
    let intervals = at(&attribution, &["intervals"]).as_array().unwrap();
    assert!(!intervals.is_empty(), "no attribution intervals");
    let mut causes = keys(at(&attribution, &["drop_by_cause"]));
    causes.sort_unstable();
    assert_eq!(
        causes,
        ["addr_pollution", "churn", "relay_lag", "unreachable_load"]
    );
    let manifest = read_json(&dir.join("manifest.json"));
    let fig1 = at(&manifest, &["experiments", "fig1"]);
    assert_eq!(
        at(fig1, &["timeseries_rows"]).as_u64(),
        Some(rows.len() as u64)
    );
    assert_eq!(at(fig1, &["warnings"]), &Value::Array(vec![]));

    let mut goldens: Vec<(String, String)> = experiment_names()
        .into_iter()
        .map(|name| {
            let Value::Str(artifact) = at(&manifest, &["experiments", name, "artifact"]) else {
                panic!("{name}: no artifact name in the manifest");
            };
            (format!("{name}/report.json"), format!("{artifact}.json"))
        })
        .collect();
    goldens.push(("fig1/attribution.txt".into(), "fig1_attribution.txt".into()));
    let bless = std::env::var_os("BLESS").is_some_and(|v| v == "1");
    for (filed, golden) in goldens {
        let golden_path = golden_dir().join(&golden);
        if bless {
            std::fs::copy(dir.join(&filed), &golden_path).expect("write golden");
            continue;
        }
        let actual = std::fs::read_to_string(dir.join(&filed)).expect(&filed);
        let expected = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden {} ({e})", golden_path.display()));
        if actual != expected {
            panic!(
                "{filed}: drifted from tests/golden/{golden} at {} (this run first); if intentional, regenerate with BLESS=1",
                file_difference(&golden, &actual, &expected)
            );
        }
    }
}

/// The registry and the snapshot directory must stay in sync: one golden
/// file per registered artifact, no strays. Cheap, so not ignored.
#[test]
fn golden_directory_matches_registry() {
    let dir = golden_dir();
    let mut expected: Vec<String> = REGISTRY
        .iter()
        .map(|exp| format!("{}.json", exp.artifact))
        .collect();
    expected.sort();
    let mut present: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing {} ({e}); run the BLESS flow", dir.display()))
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.ends_with(".json").then_some(name)
        })
        .collect();
    present.sort();
    assert_eq!(present, expected, "tests/golden out of sync with REGISTRY");
}

/// Full scale: the sampled census (10K reachable / ~700K unreachable) and
/// the full-pollution Figure 7 file the same bundle at one and four threads.
#[test]
#[ignore = "full-scale worlds take seconds in release, minutes in debug; run with --ignored (CI slow-tests)"]
fn full_scale_bundle_is_the_same_at_one_and_four_threads() {
    let args = ["--scale", "full", "census", "fig7"];
    let one = file_bundle(scratch("full1"), "1", &args);
    let four = file_bundle(scratch("full4"), "4", &args);
    assert_thread_count_invariant(&one, &four);
    std::fs::remove_dir_all(&one.dir).unwrap();
    std::fs::remove_dir_all(&four.dir).unwrap();
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
