//! `repro` — regenerates every table and figure of the paper through the
//! experiment registry.
//!
//! ```text
//! repro [--list] [--seed N] [--scale quick|scaled|full] [--threads N]
//!       [--out DIR [--trace] [--sample-interval S]] <target>...
//!
//! targets: all, or any experiment name from `repro --list`
//!   (rounds, fig6, fig7, relay, census, fig1, resync, partition, ablation,
//!   resilience, forkstress)
//! ```
//!
//! The text reports go to stdout. `--out DIR` additionally files the run as
//! one directory — `manifest.json`, `perf.json` and per experiment
//! `report.{json,txt}` and `metrics.txt`; with `--trace` the per-event
//! JSONL logs under `trace/`; with `--sample-interval S` (600 is the
//! paper's 10-minute Bitnodes snapshot window) the `timeseries.*` /
//! `attribution.*` group — written by
//! [`bitsync_core::experiments::write_bundle`]; EXPERIMENTS.md
//! §"Observability" has the layout. Experiments run independently:
//! `--threads 4` distributes them over worker threads, and stdout and every
//! file not named `perf.*` are byte-identical to a serial run with the same
//! seed. Wall time, event throughput and peak RSS go to `perf.*` and one
//! `[perf]` stderr line only. A directory that cannot be created, or a file
//! that cannot be written, is an error (exit 2), not a warning.
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
//! `competing-miners`, `solo-miners`, `reorg-storms`) must pass all three
//! harnesses and reconverge onto a single chain once faults end.

#![forbid(unsafe_code)]

use bitsync_core::experiments::fuzz::{self, FuzzConfig};
use bitsync_core::experiments::{
    experiment_seed, write_bundle, ExperimentRunner, RunnerConfig, Scale, REGISTRY,
};
use bitsync_node::world::Fault;
use bitsync_sim::metrics::{peak_rss_bytes, Throughput};
use bitsync_sim::time::SimDuration;
use std::path::PathBuf;
use std::str::FromStr;

fn list() {
    println!("available experiments (run with `repro <name>...` or `repro all`):\n");
    for exp in REGISTRY {
        println!("  {:<10} {}", exp.name, exp.paper_targets.join("; "));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value of the flag just taken from `args`: `parse` applied to the next
/// argument, or `fail()` — usage text, exit 2 — when that is missing or
/// rejected.
fn flag_value<T>(
    args: &mut std::slice::Iter<String>,
    parse: impl Fn(&str) -> Option<T>,
    fail: impl FnOnce() -> T,
) -> T {
    args.next().and_then(|s| parse(s)).unwrap_or_else(fail)
}

fn parsed<T: FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

fn positive<T: FromStr + PartialOrd + From<u8>>(s: &str) -> Option<T> {
    parsed(s).filter(|n| *n >= T::from(1))
}

/// Runs `repro fuzz ...` and exits: 0 when every scenario passed, 1 when a
/// failure was found (with a shrunk repro written to `--out`), 2 on usage
/// or I/O errors.
fn fuzz_main(args: &[String]) -> ! {
    let mut cfg = FuzzConfig::default();
    let mut replay: Option<String> = None;
    let args = &mut args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                cfg.seed = flag_value(args, parsed, || fuzz_usage("--seed needs a number"));
            }
            "--runs" => {
                let fail = || fuzz_usage("--runs needs a positive number");
                cfg.runs = flag_value(args, positive, fail);
            }
            "--max-steps" => {
                let fail = || fuzz_usage("--max-steps needs a positive number");
                cfg.max_steps = flag_value(args, positive, fail);
            }
            "--out" => {
                let fail = || fuzz_usage("--out needs a file path");
                cfg.out = Some(flag_value(args, parsed, fail));
            }
            "--fault" => {
                cfg.fault = Some(flag_value(args, Fault::parse, || {
                    let names: Vec<&str> = Fault::ALL.iter().map(|f| f.name()).collect();
                    fuzz_usage(&format!("--fault must be one of: {}", names.join(", ")))
                }));
            }
            "--replay" => {
                let fail = || fuzz_usage("--replay needs a file path");
                replay = Some(flag_value(args, parsed, fail));
            }
            t => fuzz_usage(&format!("unknown fuzz argument '{t}'")),
        }
    }

    if let Some(path) = replay {
        let verdict = match fuzz::replay_file(std::path::Path::new(&path)) {
            Ok(v) => v,
            Err(e) => die(&e.to_string()),
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
    let mut cfg = RunnerConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();
    let args = &mut args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                list();
                return;
            }
            "--trace" => cfg.trace = true,
            "--out" => {
                out = Some(flag_value(args, parsed, || {
                    usage("--out needs a directory")
                }));
            }
            "--sample-interval" => {
                let fail = || usage("--sample-interval needs a positive second count");
                cfg.sample_interval =
                    Some(SimDuration::from_secs(flag_value(args, positive, fail)));
            }
            "--seed" => cfg.seed = flag_value(args, parsed, || usage("--seed needs a number")),
            "--threads" => {
                let fail = || usage("--threads needs a positive number");
                cfg.threads = flag_value(args, positive, fail);
            }
            "--scale" => {
                cfg.scale = flag_value(args, Scale::parse, || {
                    let names = Scale::ALL.map(Scale::name).join(", ");
                    usage(&format!("--scale must be one of: {names}"))
                });
            }
            t if t.starts_with("--") => usage(&format!("unknown flag '{t}'")),
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        usage("no target given");
    }
    if out.is_none() && (cfg.trace || cfg.sample_interval.is_some()) {
        usage("--trace and --sample-interval require --out DIR");
    }
    // Before anything runs: an unusable path must not cost a simulation.
    if let Some(dir) = &out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
    }

    let started = std::time::Instant::now();
    let reports = ExperimentRunner::new(cfg)
        .run(&targets)
        .unwrap_or_else(|msg| die(&msg));
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
        println!();
    }
    if let Some(dir) = &out {
        match write_bundle(dir, &cfg, &targets, &reports, wall_secs) {
            Ok(warnings) => warnings.iter().for_each(|w| eprintln!("warning: {w}")),
            Err(msg) => die(&msg),
        }
    }

    // Wall clock goes to stderr and `perf.*` only: stdout and every other
    // file must stay byte-identical across machines and thread counts.
    let events: u64 = reports.iter().map(|r| r.sim_events()).sum();
    let throughput = Throughput { events, wall_secs };
    match peak_rss_bytes() {
        Some(rss) => eprintln!(
            "[perf] {throughput}, peak RSS {:.1} MiB",
            rss as f64 / (1024.0 * 1024.0)
        ),
        None => eprintln!("[perf] {throughput}"),
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: repro [--list] [--seed N] [--scale quick|scaled|full] [--threads N] \
         [--out DIR [--trace] [--sample-interval S]] \
         <all|fig1|census|fig6|fig7|relay|resync|rounds|ablation|partition|resilience|forkstress>...\n\
   or: repro fuzz [--seed N] [--runs K] [--max-steps M] [--out PATH] \
         [--fault NAME] [--replay FILE]"
    );
    std::process::exit(2);
}
