//! The reproduction perf trajectory: one serial registry pass at the
//! default `--scale scaled`, timed per experiment.
//!
//! Unlike the micro-benches this is a single end-to-end measurement, not a
//! sampled loop — the registry run takes minutes, and the point is a
//! machine-readable baseline, `BENCH_repro.json` at the repository root,
//! that future PRs diff against: per-experiment wall time (the runner's
//! `run` phase span), simulator event throughput, and peak RSS.
//!
//! Regenerate with `cargo bench -p bitsync-bench --bench repro` (also
//! documented in EXPERIMENTS.md §"Observability").

use bitsync_core::experiments::{ExperimentRunner, RunnerConfig, Scale};
use bitsync_json::Value;
use bitsync_sim::metrics::peak_rss_bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

const SEED: u64 = 2021;

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn record_artifact(_c: &mut Criterion) {
    let runner = ExperimentRunner::new(RunnerConfig {
        scale: Scale::Scaled,
        seed: SEED,
        threads: 1,
        trace_cap: None,
        sample_interval: None,
    });
    let started = Instant::now();
    let reports = runner
        .run(&["all".to_string()])
        .expect("`all` is a valid target");
    let wall_secs = started.elapsed().as_secs_f64();

    let mut experiments = Value::object();
    let mut total_events = 0u64;
    for r in &reports {
        let run_secs = r
            .spans
            .iter()
            .filter(|s| s.phase == "run")
            .map(|s| s.dur_us)
            .sum::<u64>() as f64
            / 1e6;
        let events = r
            .json
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("sim.events_processed"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        total_events += events;
        experiments.set(
            r.name,
            Value::object()
                .with("run_secs", round2(run_secs))
                .with("sim_events", events)
                .with(
                    "events_per_sec",
                    if run_secs > 0.0 {
                        (events as f64 / run_secs).round()
                    } else {
                        0.0
                    },
                ),
        );
    }

    let mut json = Value::object()
        .with("command", "cargo bench -p bitsync-bench --bench repro")
        .with("scale", "scaled")
        .with("seed", SEED)
        .with("threads", 1u32)
        .with("wall_secs", round2(wall_secs))
        .with("total_sim_events", total_events)
        .with("events_per_sec", (total_events as f64 / wall_secs).round())
        .with("experiments", experiments);
    if let Some(rss) = peak_rss_bytes() {
        json.set("peak_rss_mib", round2(rss as f64 / (1024.0 * 1024.0)));
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_repro.json");
    match std::fs::write(&path, json.to_string_pretty()) {
        Ok(()) => println!(
            "repro: {} experiments, {total_events} events in {wall_secs:.1}s -> {}",
            reports.len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2);
    targets = record_artifact
}
criterion_main!(benches);
