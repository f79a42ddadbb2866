//! `repro` — regenerates every table and figure of the paper through the
//! experiment registry.
//!
//! ```text
//! repro [--list] [--seed N] [--scale quick|scaled|full] [--threads N]
//!       [--json DIR] [--metrics] [--trace DIR] [--trace-cap N]
//!       [--timeseries DIR] [--sample-interval S]
//!       [--profile PATH] <target>...
//!
//! targets: all, or any experiment name from `repro --list`
//!   (rounds, fig6, fig7, relay, census, fig1, resync, partition, ablation,
//!   resilience, forkstress)
//! ```
//!
//! Experiments run independently — `--threads 4` distributes them over
//! worker threads; the output (text, JSON, metrics, JSONL traces) is
//! byte-identical to a serial run with the same seed. Wall time, event
//! throughput, peak RSS, and the `--profile` phase spans go to stderr /
//! side files only, never into the deterministic report JSON.
//!
//! `--trace DIR` writes per-experiment JSONL event logs under
//! `DIR/<experiment>/<category>.jsonl` (see EXPERIMENTS.md
//! §"Observability"); `--trace-cap N` bounds each category's ring buffer
//! (default 262144 events). `--profile PATH` writes a Chrome trace-event
//! JSON file loadable in `chrome://tracing` or Perfetto.
//!
//! `--timeseries DIR` samples world gauges on a sim-time cadence
//! (`--sample-interval S` seconds, default 600 — the paper's 10-minute
//! Bitnodes snapshot window) and writes per-experiment
//! `DIR/<experiment>/timeseries.{jsonl,csv}` plus the wall-clock
//! `perf.jsonl` side-channel, then prints and writes the root-cause
//! attribution table (`attribution.txt`/`.json`). The deterministic rows
//! are byte-identical across `--threads`; only `perf.jsonl` is not.
//!
//! The separate `fuzz` subcommand runs the deterministic scenario fuzzer
//! (EXPERIMENTS.md §"Fuzzing & invariants"):
//!
//! ```text
//! repro fuzz [--seed N] [--runs K] [--max-steps M] [--out PATH]
//!            [--fault NAME] [--replay FILE]
//! ```
//!
//! `--fault` arms one of the named [`Fault`] variants in every sampled
//! scenario: the planted bugs (`duplicate-deliveries`,
//! `time-warp-deliveries`, `ban-reorg-peers`) must make the campaign fail
//! via the invariant checker, while the benign fault-plane variants
//! (`drop-messages`, `delay-messages`, `reorder-messages`, `stall-peers`,
//! `addr-flood`, `connection-flaps`, `partition-flaps`,
//! `competing-miners`, `solo-miners`, `reorg-storms`) must pass all four
//! harnesses and reconverge onto a single chain once faults end.

use bitsync_core::experiments::fuzz::{self, FuzzConfig};
use bitsync_core::experiments::{experiment_seed, ExperimentRunner, RunnerConfig, Scale, REGISTRY};
use bitsync_core::profile::Profile;
use bitsync_node::world::Fault;
use bitsync_sim::metrics::{peak_rss_bytes, Throughput};
use bitsync_sim::time::SimDuration;
use bitsync_sim::trace::DEFAULT_TRACE_CAP;

/// Default `--timeseries` cadence: the paper's 10-minute snapshot window.
const DEFAULT_SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(600);

fn list() {
    println!("available experiments (run with `repro <name>...` or `repro all`):\n");
    for exp in REGISTRY {
        println!("  {:<10} {}", exp.name, exp.paper_targets.join("; "));
    }
}

fn fmt_q(q: Option<f64>) -> String {
    match q {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    }
}

/// Runs `repro fuzz ...` and exits: 0 when every scenario passed, 1 when a
/// failure was found (with a shrunk repro written to `--out`), 2 on usage
/// or I/O errors.
fn fuzz_main(args: &[String]) -> ! {
    let mut cfg = FuzzConfig::default();
    let mut replay: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fuzz_usage("--seed needs a number"));
            }
            "--runs" => {
                i += 1;
                cfg.runs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fuzz_usage("--runs needs a positive number"));
            }
            "--max-steps" => {
                i += 1;
                cfg.max_steps = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fuzz_usage("--max-steps needs a positive number"));
            }
            "--out" => {
                i += 1;
                let path = args
                    .get(i)
                    .unwrap_or_else(|| fuzz_usage("--out needs a file path"));
                cfg.out = Some(std::path::PathBuf::from(path));
            }
            "--fault" => {
                i += 1;
                cfg.fault = match args.get(i).and_then(|s| Fault::parse(s)) {
                    Some(f) => Some(f),
                    None => {
                        let names: Vec<&str> = Fault::ALL.iter().map(|f| f.name()).collect();
                        fuzz_usage(&format!("--fault must be one of: {}", names.join(", ")))
                    }
                };
            }
            "--replay" => {
                i += 1;
                replay = Some(
                    args.get(i)
                        .unwrap_or_else(|| fuzz_usage("--replay needs a file path"))
                        .clone(),
                );
            }
            t => fuzz_usage(&format!("unknown fuzz argument '{t}'")),
        }
        i += 1;
    }

    if let Some(path) = replay {
        let verdict = match fuzz::replay_file(std::path::Path::new(&path)) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        println!(
            "replayed {path} (seed {}): {} events, {} invariant checks",
            verdict.scenario.seed, verdict.events_processed, verdict.checks
        );
        if verdict.passed() {
            println!("PASS: scenario satisfies every invariant");
            std::process::exit(0);
        }
        println!("FAIL:");
        for f in &verdict.failures {
            println!("  {f}");
        }
        std::process::exit(1);
    }

    // A default repro path so a bare CI invocation always leaves an
    // artifact behind on failure.
    cfg.out
        .get_or_insert_with(|| std::path::PathBuf::from("fuzz-repro.json"));
    let started = std::time::Instant::now();
    let outcome = fuzz::run_fuzz(&cfg);
    eprintln!(
        "[fuzz] seed {}, {} run{} completed, {} events, {} invariant checks, {:.1}s",
        cfg.seed,
        outcome.runs_completed,
        if outcome.runs_completed == 1 { "" } else { "s" },
        outcome.events_processed,
        outcome.checks,
        started.elapsed().as_secs_f64()
    );
    let Some(failure) = outcome.failure else {
        println!(
            "PASS: {} scenario{} satisfied every invariant",
            outcome.runs_completed,
            if outcome.runs_completed == 1 { "" } else { "s" }
        );
        std::process::exit(0);
    };
    println!("FAIL: run {} violated the harness:", failure.run_index);
    for f in &failure.failures {
        println!("  {f}");
    }
    println!(
        "shrunk scenario:\n{}",
        failure.shrunk.to_json().to_string_pretty()
    );
    if let Some(path) = &failure.repro_path {
        println!("repro written to {}", path.display());
        match failure.repro_confirmed {
            Some(true) => println!("repro replay: confirmed (still fails)"),
            Some(false) => println!("repro replay: WARNING — replay did not reproduce"),
            None => {}
        }
    }
    std::process::exit(1);
}

fn fuzz_usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: repro fuzz [--seed N] [--runs K] [--max-steps M] [--out PATH] \
         [--fault NAME] [--replay FILE]"
    );
    eprintln!(
        "fault names: {}",
        Fault::ALL
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        fuzz_main(&args[1..]);
    }
    let mut cfg = RunnerConfig {
        scale: Scale::Scaled,
        seed: 2021,
        threads: 1,
        trace_cap: None,
        sample_interval: None,
    };
    let mut json_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut timeseries_dir: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut show_metrics = false;
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                list();
                return;
            }
            "--metrics" => show_metrics = true,
            "--json" => {
                i += 1;
                let dir = args
                    .get(i)
                    .unwrap_or_else(|| usage("--json needs a directory"))
                    .clone();
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("error: cannot create {dir}: {e}");
                    std::process::exit(2);
                }
                json_dir = Some(dir);
            }
            "--trace" => {
                i += 1;
                let dir = args
                    .get(i)
                    .unwrap_or_else(|| usage("--trace needs a directory"))
                    .clone();
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("error: cannot create {dir}: {e}");
                    std::process::exit(2);
                }
                trace_dir = Some(dir);
                cfg.trace_cap.get_or_insert(DEFAULT_TRACE_CAP);
            }
            "--trace-cap" => {
                i += 1;
                cfg.trace_cap = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage("--trace-cap needs a positive event count")),
                );
            }
            "--timeseries" => {
                i += 1;
                let dir = args
                    .get(i)
                    .unwrap_or_else(|| usage("--timeseries needs a directory"))
                    .clone();
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("error: cannot create {dir}: {e}");
                    std::process::exit(2);
                }
                timeseries_dir = Some(dir);
                cfg.sample_interval.get_or_insert(DEFAULT_SAMPLE_INTERVAL);
            }
            "--sample-interval" => {
                i += 1;
                cfg.sample_interval = Some(SimDuration::from_secs(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n >= 1)
                        .unwrap_or_else(|| {
                            usage("--sample-interval needs a positive second count")
                        }),
                ));
            }
            "--profile" => {
                i += 1;
                profile_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| usage("--profile needs a file path"))
                        .clone(),
                );
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--threads" => {
                i += 1;
                cfg.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--threads needs a positive number"));
            }
            "--scale" => {
                i += 1;
                cfg.scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| {
                        let names = Scale::ALL.map(Scale::name);
                        usage(&format!("--scale must be one of: {}", names.join(", ")))
                    });
            }
            t if t.starts_with("--") => usage(&format!("unknown flag '{t}'")),
            t => targets.push(t.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        usage("no target given");
    }
    if trace_dir.is_none() && cfg.trace_cap.is_some() {
        usage("--trace-cap requires --trace DIR");
    }
    if timeseries_dir.is_none() && cfg.sample_interval.is_some() {
        usage("--sample-interval requires --timeseries DIR");
    }

    let runner = ExperimentRunner::new(cfg);
    let started = std::time::Instant::now();
    let reports = match runner.run(&targets) {
        Ok(reports) => reports,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let wall_secs = started.elapsed().as_secs_f64();

    println!(
        "bitsync repro — seed {}, scale {}, {} thread{}\n",
        cfg.seed,
        cfg.scale.name(),
        cfg.threads,
        if cfg.threads == 1 { "" } else { "s" }
    );

    for report in &reports {
        debug_assert_eq!(report.seed, experiment_seed(cfg.seed, report.name));
        print!("{}", report.rendered);
        if show_metrics {
            if let Some(metrics) = report.json.get("metrics") {
                println!("metrics [{}]:", report.name);
                println!("{}", metrics.to_string_pretty());
                for (name, h) in &report.histograms {
                    println!(
                        "quantiles [{}] {name}: p50={} p90={} p99={}",
                        report.name,
                        fmt_q(h.quantile(0.5)),
                        fmt_q(h.quantile(0.9)),
                        fmt_q(h.quantile(0.99)),
                    );
                }
            }
        }
        println!();
        if let Some(dir) = &json_dir {
            let path = std::path::Path::new(dir).join(format!("{}.json", report.artifact));
            if let Err(e) = std::fs::write(&path, report.json.to_string_pretty()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        if let (Some(dir), Some(log)) = (&trace_dir, &report.trace) {
            let sub = std::path::Path::new(dir).join(report.name);
            match std::fs::create_dir_all(&sub).and_then(|()| log.write_dir(&sub)) {
                Ok(files) => {
                    eprintln!(
                        "[trace] {}: {} events ({} dropped) in {} file{}",
                        report.name,
                        log.total_events(),
                        log.total_dropped(),
                        files.len(),
                        if files.len() == 1 { "" } else { "s" }
                    );
                }
                Err(e) => eprintln!("warning: could not write trace for {}: {e}", report.name),
            }
        }
        if let (Some(dir), Some(log)) = (&timeseries_dir, &report.timeseries) {
            let sub = std::path::Path::new(dir).join(report.name);
            match std::fs::create_dir_all(&sub).and_then(|()| log.write_dir(&sub)) {
                Ok(files) => eprintln!(
                    "[timeseries] {}: {} rows in {} file{}",
                    report.name,
                    log.len(),
                    files.len(),
                    if files.len() == 1 { "" } else { "s" }
                ),
                Err(e) => eprintln!(
                    "warning: could not write timeseries for {}: {e}",
                    report.name
                ),
            }
            let attribution = bitsync_core::analysis::attribute(&log.rows);
            if !attribution.intervals.is_empty() {
                let text = bitsync_core::report::render_rootcause(report.name, &attribution);
                print!("{text}");
                println!();
                let txt_path = sub.join("attribution.txt");
                if let Err(e) = std::fs::write(&txt_path, &text) {
                    eprintln!("warning: could not write {}: {e}", txt_path.display());
                }
                let json_path = sub.join("attribution.json");
                use bitsync_json::ToJson as _;
                if let Err(e) = std::fs::write(&json_path, attribution.to_json().to_string_pretty())
                {
                    eprintln!("warning: could not write {}: {e}", json_path.display());
                }
            }
        }
    }

    // Perf side-channel: stderr only — report JSON must stay byte-identical
    // across machines and thread counts.
    let events: u64 = reports
        .iter()
        .filter_map(|r| {
            r.json
                .get("metrics")?
                .get("counters")?
                .get("sim.events_processed")?
                .as_u64()
        })
        .sum();
    let throughput = Throughput { events, wall_secs };
    match peak_rss_bytes() {
        Some(rss) => eprintln!(
            "[perf] {throughput}, peak RSS {:.1} MiB",
            rss as f64 / (1024.0 * 1024.0)
        ),
        None => eprintln!("[perf] {throughput}"),
    }

    if let Some(path) = &profile_path {
        let spans = reports
            .iter()
            .flat_map(|r| r.spans.iter().copied())
            .collect();
        let profile = Profile::new(spans, wall_secs);
        eprint!("{}", profile.summary());
        if let Err(e) = std::fs::write(path, profile.to_chrome_trace().to_string()) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            eprintln!("[profile] chrome trace written to {path}");
        }
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: repro [--list] [--seed N] [--scale quick|scaled|full] [--threads N] \
         [--json DIR] [--metrics] [--trace DIR] [--trace-cap N] \
         [--timeseries DIR] [--sample-interval S] [--profile PATH] \
         <all|fig1|census|fig6|fig7|relay|resync|rounds|ablation|partition|resilience|forkstress>...\n\
   or: repro fuzz [--seed N] [--runs K] [--max-steps M] [--out PATH] \
         [--fault NAME] [--replay FILE]"
    );
    std::process::exit(2);
}
