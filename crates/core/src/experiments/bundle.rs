//! One run, one directory: the `repro --out DIR` bundle.
//!
//! ```text
//! DIR/manifest.json              what ran and how healthy the simulator was
//! DIR/perf.json                  wall clock: threads, seconds, events/s, RSS
//! DIR/<name>/report.json         the envelope {experiment, .., result, metrics}
//! DIR/<name>/report.txt          the paper-style text report
//! DIR/<name>/metrics.txt         the metrics section + histogram quantiles
//! DIR/<name>/trace/<cat>.jsonl   traced runs only
//! DIR/<name>/timeseries.{jsonl,csv}, attribution.{txt,json}, perf.jsonl
//!                                sampled runs only
//! ```
//!
//! One rule separates the two kinds of file: a file named `perf.*` holds
//! wall-clock observations; every other file, the manifest included, is a
//! pure function of `(seed, scale, targets, instruments)` and is
//! byte-identical at any thread count.
//!
//! Only this module creates a run's files: the trace and time-series logs
//! serialise to strings and every file goes through the one [`write()`]
//! below; `bitsync_json::parse` reads each JSON file back to the same bytes.

use super::runner::{ExperimentReport, RunnerConfig};
use bitsync_json::{ToJson, Value};
use bitsync_sim::metrics::{peak_rss_bytes, Throughput};
use bitsync_sim::trace::DEFAULT_TRACE_CAP;
use std::path::Path;

/// Writes one finished run under `dir` (layout in the module docs),
/// creating directories as needed, and returns the simulator-health
/// warnings it recorded in the manifest, each prefixed with its experiment:
/// a sampled experiment with no timeseries rows, a trace category that
/// evicted events. `targets` are the caller's, as given; `wall_secs` is the
/// wall time of the whole `ExperimentRunner::run`. `Err` names the first
/// path that could not be written.
pub fn write_bundle(
    dir: &Path,
    cfg: &RunnerConfig,
    targets: &[String],
    reports: &[ExperimentReport],
    wall_secs: f64,
) -> Result<Vec<String>, String> {
    let mut warnings = Vec::new();
    let mut experiments = Value::object();
    for r in reports {
        let sub = dir.join(r.name);
        create_dir(&sub)?;
        write(&sub.join("report.json"), &r.json.to_string_pretty())?;
        write(&sub.join("report.txt"), &r.rendered)?;
        write(&sub.join("metrics.txt"), &metrics_text(r))?;

        let mut own = Vec::new();
        let mut trace = Value::Null;
        if let Some(log) = &r.trace {
            let trace_dir = sub.join("trace");
            create_dir(&trace_dir)?;
            for (category, jsonl) in log.to_jsonl() {
                write(&trace_dir.join(format!("{category}.jsonl")), &jsonl)?;
            }
            trace = Value::object();
            for (category, events, dropped) in log.counts() {
                let counts = Value::object()
                    .with("events", events)
                    .with("dropped", dropped);
                trace.set(category, counts);
                if dropped > 0 {
                    own.push(format!(
                        "trace category {category} dropped {dropped} events (kept the newest {events})"
                    ));
                }
            }
        }
        if let Some(log) = &r.timeseries {
            write(&sub.join("timeseries.jsonl"), &log.to_jsonl())?;
            write(&sub.join("timeseries.csv"), &log.to_csv())?;
            if !log.perf.is_empty() {
                write(&sub.join("perf.jsonl"), &log.perf_to_jsonl())?;
            }
            if log.is_empty() {
                own.push(format!(
                    "0 timeseries rows: no world lived a full {} s sample interval",
                    log.interval().as_secs()
                ));
            }
            let attribution = bitsync_analysis::attribute(&log.rows);
            if !attribution.intervals.is_empty() {
                let text = crate::report::render_rootcause(r.name, &attribution);
                write(&sub.join("attribution.txt"), &text)?;
                let json = attribution.to_json().to_string_pretty();
                write(&sub.join("attribution.json"), &json)?;
            }
        }
        warnings.extend(own.iter().map(|w| format!("{}: {w}", r.name)));
        experiments.set(
            r.name,
            Value::object()
                .with("seed", r.seed)
                .with("artifact", r.artifact)
                .with("sim_events", r.sim_events())
                .with("trace", trace)
                .with("timeseries_rows", r.timeseries.as_ref().map(|l| l.len()))
                .with("warnings", own),
        );
    }

    let sample_secs = cfg.sample_interval.map(|i| i.as_secs());
    let manifest = Value::object()
        .with("seed", cfg.seed)
        .with("scale", cfg.scale.name())
        .with("targets", targets.to_vec())
        .with("trace_cap", cfg.trace.then_some(DEFAULT_TRACE_CAP))
        .with("sample_interval_secs", sample_secs)
        .with("experiments", experiments);
    write(&dir.join("manifest.json"), &manifest.to_string_pretty())?;

    let mut command = format!(
        "repro --scale {} --seed {} --threads {} --out {}",
        cfg.scale.name(),
        cfg.seed,
        cfg.threads,
        dir.display()
    );
    if cfg.trace {
        command.push_str(" --trace");
    }
    if let Some(secs) = sample_secs {
        command.push_str(&format!(" --sample-interval {secs}"));
    }
    for t in targets {
        command.push_str(&format!(" {t}"));
    }
    let perf = perf_json(command, cfg, reports, wall_secs);
    write(&dir.join("perf.json"), &perf.to_string_pretty())?;
    Ok(warnings)
}

/// The two calls that touch the filesystem; each names the path it failed on.
fn create_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The envelope's metrics section, then one p50/p90/p99 line per histogram
/// in the section's order.
fn metrics_text(r: &ExperimentReport) -> String {
    let metrics = r.json.get("metrics").unwrap_or(&Value::Null);
    let mut out = format!("metrics [{}]:\n{}\n", r.name, metrics.to_string_pretty());
    for (name, h) in &r.histograms {
        let q = |p: f64| h.quantile(p).map_or("-".to_string(), |v| format!("{v:.3}"));
        out.push_str(&format!(
            "quantiles [{}] {name}: p50={} p90={} p99={}\n",
            r.name,
            q(0.5),
            q(0.9),
            q(0.99)
        ));
    }
    out
}

/// `perf.json`: the key names are those of the tracked `BENCH_repro.json`,
/// which is this file from a `--scale scaled --threads 1 all` run.
fn perf_json(
    command: String,
    cfg: &RunnerConfig,
    reports: &[ExperimentReport],
    wall_secs: f64,
) -> Value {
    let per_sec = |events: u64, wall_secs: f64| Throughput { events, wall_secs }.events_per_sec();
    let mut experiments = Value::object();
    let mut total_events = 0u64;
    for r in reports {
        let events = r.sim_events();
        total_events += events;
        experiments.set(
            r.name,
            Value::object()
                .with("run_secs", r.run_secs)
                .with("sim_events", events)
                .with("events_per_sec", per_sec(events, r.run_secs).round()),
        );
    }
    let mut json = Value::object()
        .with("command", command)
        .with("scale", cfg.scale.name())
        .with("seed", cfg.seed)
        .with("threads", cfg.threads)
        .with("wall_secs", wall_secs)
        .with("total_sim_events", total_events)
        .with("events_per_sec", per_sec(total_events, wall_secs).round())
        .with("experiments", experiments);
    if let Some(rss) = peak_rss_bytes() {
        json.set("peak_rss_mib", rss as f64 / (1024.0 * 1024.0));
    }
    json
}
