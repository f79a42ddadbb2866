//! `bench` — the bitsync simulator's performance benchmark.
//!
//! ```text
//! bench run     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!               [--repeats R] [--smoke] [--bless] [--out DIR]
//! bench trace   …            the same with --trace 1
//! bench compare A.json B.json
//! ```
//!
//! With `--workload` the workload runs in this process and the last line of
//! standard output is the result object the benchmark contract asks for.
//! Without it, every workload runs `--repeats` times, one single-threaded
//! child process after another (so peak RSS is per workload and nothing
//! contends for the cores), and the table lands in `out/results.json`.
//! See `README.md`.

mod alloc;
mod compare;
mod expected;
mod harness;
mod json;
mod metrics;
mod seam;
mod span;
mod stats;

use expected::{Expected, PINNED_SEEDS};
use harness::{Options, Report, REFERENCE_SEED};
use seam::{Value, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  bench run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--repeats R] [--smoke] [--bless] [--out DIR]
  bench trace [same flags]          (run with --trace 1)
  bench compare A.json B.json
workloads: relay_star churn_mesh mixed_mesh fault_sweep_observed";

/// Parsed `run`/`trace` flags.
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeats: Option<usize>,
    smoke: bool,
    bless: bool,
    out: PathBuf,
}

fn parse_run_args(args: &[String], trace_default: bool) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: REFERENCE_SEED,
        seconds: None,
        trace: trace_default,
        repeats: None,
        smoke: false,
        bless: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                parsed.workload = Some(Workload::parse(&v).ok_or_else(|| bad(&v))?);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(bad(&v));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                parsed.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--repeats" => {
                let v = value()?;
                let r: usize = v.parse().map_err(|_| bad(&v))?;
                if !(1..=100).contains(&r) {
                    return Err(bad(&v));
                }
                parsed.repeats = Some(r);
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            "--bless" => parsed.bless = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn measured(value: f64, unit: &str) -> Value {
    Value::object().with("value", value).with("unit", unit)
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn contract_line(report: &Report) -> Value {
    let mut metrics = Value::object();
    for m in &report.metrics {
        metrics.set(m.name, measured(m.value, metrics::unit_of(m.name)));
    }
    Value::object()
        .with("correct", report.failures.is_empty())
        .with("attempted", report.ops)
        .with("failed", report.failures.len())
        .with("metrics", metrics)
}

/// Everything else a parent run (or a reader) wants from a child.
fn detail_line(opts: &Options, report: &Report) -> Value {
    let mut info = Value::object();
    for (name, value, unit) in &report.info {
        info.set(name, measured(*value, unit));
    }
    Value::object()
        .with("workload", opts.workload.name())
        .with("seed", opts.seed)
        .with("trace", opts.trace)
        .with("smoke", opts.smoke)
        .with("digest", report.digest.as_str())
        .with("held_out_digest", report.held_out_digest.clone())
        .with("events", report.events)
        .with("failures", report.failures.clone())
        .with("info", info)
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &RunArgs, workload: Workload) -> Result<(), String> {
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 0.3 } else { 15.0 }),
        trace: args.trace,
        smoke: args.smoke,
        bless: args.bless,
    };
    let path = Expected::path();
    let mut expected = Expected::load(&path)?;
    let report = harness::run(&opts, &mut expected);
    if opts.bless {
        expected.save(&path)?;
    }

    println!(
        "{} seed {} trace {} — reference world {} digest {}",
        workload.name(),
        opts.seed,
        u8::from(opts.trace),
        REFERENCE_SEED,
        report.digest
    );
    if let Some(d) = &report.held_out_digest {
        println!("held-out world {} digest {d}", opts.seed);
    }
    for m in &report.metrics {
        println!(
            "  {:<38} {:>18.6} {}",
            m.name,
            m.value,
            metrics::unit_of(m.name)
        );
    }
    for (name, value, unit) in &report.info {
        println!("  ({name:<36} {value:>18.6} {unit})");
    }
    println!(
        "  {:<38} {:>18}\n  {:<38} {:>18}",
        "ops",
        report.ops,
        "ops_failed",
        report.failures.len()
    );
    for f in &report.failures {
        println!("  FAILED {f}");
    }
    if opts.trace {
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let file = args.out.join(format!("trace-{}.json", workload.name()));
        std::fs::write(
            &file,
            report.spans.to_chrome_trace(workload.name()).to_string(),
        )
        .map_err(|e| format!("{}: {e}", file.display()))?;
        println!("  spans -> {}", file.display());
    }
    println!("{}", detail_line(&opts, &report));
    println!("{}", contract_line(&report));
    Ok(())
}

/// One child run's two result lines.
struct ChildResult {
    detail: Value,
    contract: Value,
}

/// Runs one workload in a child process of this same binary. A blessing
/// child needs no time budget: two replays pin the digest.
fn spawn_child(
    args: &RunArgs,
    workload: Workload,
    seed: u64,
    smoke: bool,
    bless: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if bless {
        cmd.args(["--bless", "--seconds", "0"]);
    } else if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} child exited with {}:\n{stdout}{}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut lines = stdout.lines().rev();
    let contract = json::parse(lines.next().unwrap_or(""))?;
    let detail = json::parse(lines.next().unwrap_or(""))?;
    Ok(ChildResult { detail, contract })
}

/// Re-pins every digest: both sizes, every workload, both pinned seeds (the
/// reference world is replayed in every run; the other pinned seed rides as
/// the held-out world).
fn bless_all(args: &RunArgs) -> Result<(), String> {
    let held_out = PINNED_SEEDS[1];
    for smoke in [false, true] {
        for workload in Workload::ALL {
            let child = spawn_child(args, workload, held_out, smoke, true)?;
            println!(
                "blessed {:<22} {} {}",
                workload.name(),
                if smoke { "smoke" } else { "full " },
                child
                    .detail
                    .get("digest")
                    .map(Value::to_string)
                    .unwrap_or_default()
            );
        }
    }
    println!("wrote {}", Expected::path().display());
    Ok(())
}

/// Runs every workload `repeats` times in child processes, prints the table
/// and writes the result file. Returns whether every check passed.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let repeats = args.repeats.unwrap_or(if args.smoke { 1 } else { 3 });
    let mut workloads = Value::object();
    let mut all_ok = true;
    for workload in Workload::ALL {
        // (name, unit, one value per repeat), in the child's metric order.
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut ops, mut failed) = (0u64, 0u64);
        let mut last_detail = Value::Null;
        for _ in 0..repeats {
            let child = spawn_child(args, workload, args.seed, args.smoke, false)?;
            ops += child
                .contract
                .get("attempted")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            failed += child
                .contract
                .get("failed")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            for f in child
                .detail
                .get("failures")
                .and_then(Value::as_array)
                .unwrap_or(&[])
            {
                println!("FAILED {f}");
            }
            let empty = Value::object();
            let metrics = child.contract.get("metrics").unwrap_or(&empty);
            for (i, (name, m)) in json::members(metrics).iter().enumerate() {
                if series.len() <= i {
                    let unit = m.get("unit").and_then(json::as_str).unwrap_or("");
                    series.push((name.clone(), unit.to_string(), Vec::new()));
                }
                series[i]
                    .2
                    .push(m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN));
            }
            last_detail = child.detail;
        }
        all_ok &= failed == 0;
        println!("{} (n = {repeats})", workload.name());
        let mut metrics = Value::object();
        for (name, unit, v) in &series {
            let (lo, hi) = v
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
            let med = stats::median(v);
            println!("  {name:<38} {med:>16.6} {unit:<6} min {lo:.6} max {hi:.6}");
            metrics.set(
                name,
                Value::object()
                    .with("unit", unit.as_str())
                    .with("values", v.clone())
                    .with("median", med)
                    .with("min", lo)
                    .with("max", hi)
                    .with("n", v.len()),
            );
        }
        println!(
            "  {:<38} {ops:>16}\n  {:<38} {failed:>16}",
            "ops", "ops_failed"
        );
        workloads.set(
            workload.name(),
            Value::object()
                .with(
                    "digest",
                    last_detail.get("digest").cloned().unwrap_or(Value::Null),
                )
                .with(
                    "events",
                    last_detail.get("events").cloned().unwrap_or(Value::Null),
                )
                .with("ops", ops)
                .with("ops_failed", failed)
                .with("metrics", metrics),
        );
    }
    let doc = Value::object()
        .with("schema", 1)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("smoke", args.smoke)
        .with("repeats", repeats)
        .with("workloads", workloads);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let file = args.out.join(if args.trace {
        "results-trace.json"
    } else {
        "results.json"
    });
    std::fs::write(&file, doc.to_string_pretty())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("results -> {}", file.display());
    Ok(all_ok)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (text, pass) = compare::compare(&read(a)?, &read(b)?);
    print!("{text}");
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace")) => parse_run_args(&args[1..], cmd == "trace").and_then(|a| {
            match a.workload {
                // A result was produced: exit 0 and let `correct` speak.
                Some(w) => run_one(&a, w).map(|()| true),
                None if a.bless => bless_all(&a).map(|()| true),
                None => run_all(&a),
            }
        }),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
