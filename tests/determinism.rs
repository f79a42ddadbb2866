//! Registry determinism and metrics integration tests.
//!
//! The runner's contract: for a fixed global seed, every experiment's
//! serialized report — result *and* metrics — is byte-identical whatever
//! the thread count, run count, or requested subset.

use bitsync_core::experiments::{
    experiment_names, experiment_seed, ExperimentRunner, RunnerConfig, Scale,
};
use bitsync_core::sim::time::SimDuration;
use bitsync_core::sim::timeseries::TimeseriesLog;
use bitsync_json::Value;
use std::sync::OnceLock;

/// Quick-scale experiments that finish fast enough for a test.
const TARGETS: &[&str] = &[
    "rounds",
    "fig6",
    "fig7",
    "relay",
    "resilience",
    "forkstress",
];

struct Report {
    name: String,
    seed: u64,
    json: Value,
    pretty: String,
}

fn run_with(threads: usize, targets: &[&str]) -> Vec<Report> {
    let runner = ExperimentRunner::new(RunnerConfig {
        scale: Scale::Quick,
        seed: 2021,
        threads,
        trace_cap: None,
        sample_interval: None,
    });
    runner
        .run(&targets.iter().map(|t| t.to_string()).collect::<Vec<_>>())
        .expect("targets resolve")
        .into_iter()
        .map(|r| Report {
            name: r.name.to_string(),
            seed: r.seed,
            pretty: r.json.to_string_pretty(),
            json: r.json,
        })
        .collect()
}

/// The serial baseline, computed once and shared across tests.
fn serial_baseline() -> &'static [Report] {
    static SERIAL: OnceLock<Vec<Report>> = OnceLock::new();
    SERIAL.get_or_init(|| run_with(1, TARGETS))
}

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let serial = serial_baseline();
    let parallel = run_with(4, TARGETS);
    assert_eq!(serial.len(), TARGETS.len());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "report order must be registry order");
        assert_eq!(
            s.pretty, p.pretty,
            "{}: serial vs parallel JSON diverged",
            s.name
        );
    }
}

/// Full-scale determinism: at `--scale full` the sampled census (10K
/// reachable / ~700K unreachable) and the full-pollution Figure 7 runs
/// must serialize byte-identically whatever the thread count.
///
/// Ignored by default — it takes seconds in release but minutes in debug;
/// the CI release job runs it via `cargo test --release -- --ignored`.
#[test]
#[ignore = "full-scale run; exercised by the release CI job"]
fn full_scale_reports_are_thread_count_invariant() {
    let run = |threads: usize| -> Vec<Report> {
        let runner = ExperimentRunner::new(RunnerConfig {
            scale: Scale::Full,
            seed: 2021,
            threads,
            trace_cap: None,
            sample_interval: None,
        });
        runner
            .run(&["census".to_string(), "fig7".to_string()])
            .expect("targets resolve")
            .into_iter()
            .map(|r| Report {
                name: r.name.to_string(),
                seed: r.seed,
                pretty: r.json.to_string_pretty(),
                json: r.json,
            })
            .collect()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.len(), 2);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "report order must be registry order");
        assert_eq!(
            s.pretty, p.pretty,
            "{}: full-scale serial vs parallel JSON diverged",
            s.name
        );
    }
}

/// Tentpole acceptance: the time-series sampler's exports — JSONL and CSV —
/// are byte-identical whatever the thread count for every registered
/// experiment, none of them comes back empty, and the wall-clock perf
/// side-channel never leaks into them.
#[test]
fn timeseries_exports_byte_identical_across_thread_counts() {
    let names = experiment_names();
    let run = |threads: usize| -> Vec<(String, TimeseriesLog)> {
        let runner = ExperimentRunner::new(RunnerConfig {
            scale: Scale::Quick,
            seed: 2021,
            threads,
            trace_cap: None,
            // One minute: fig7's worlds live five sim-minutes, fig6's seven.
            sample_interval: Some(SimDuration::from_secs(60)),
        });
        runner
            .run(&names.iter().map(|t| t.to_string()).collect::<Vec<_>>())
            .expect("targets resolve")
            .into_iter()
            .map(|r| (r.name.to_string(), r.timeseries.expect("sampler captured")))
            .collect()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.len(), names.len());
    assert_eq!(serial.len(), parallel.len());
    for ((name_s, log_s), (name_p, log_p)) in serial.iter().zip(&parallel) {
        assert_eq!(name_s, name_p, "report order must be registry order");
        assert!(!log_s.is_empty(), "{name_s}: sampler produced no rows");
        assert_eq!(
            log_s.to_jsonl(),
            log_p.to_jsonl(),
            "{name_s}: timeseries JSONL diverged between 1 and 4 threads"
        );
        assert_eq!(
            log_s.to_csv(),
            log_p.to_csv(),
            "{name_s}: timeseries CSV diverged between 1 and 4 threads"
        );
        assert!(
            !log_s.to_jsonl().contains("wall_secs"),
            "{name_s}: perf side-channel leaked into the deterministic export"
        );
    }
    // Multi-world experiments label each world's rows, and every world row
    // carries the honest-sync gauge the root-cause decomposition needs.
    for (name, ctxs) in [
        ("fig1", &["y2019", "y2020"][..]),
        (
            "ablation",
            &["baseline (Core 0.20)", "all three refinements"],
        ),
        ("partition", &["before", "attack", "heal"]),
    ] {
        let log = &serial.iter().find(|(n, _)| n == name).expect(name).1;
        for ctx in ctxs {
            assert!(
                log.rows.iter().any(|r| r.ctx.as_deref() == Some(ctx)),
                "{name} rows missing ctx {ctx}"
            );
        }
        assert!(
            log.rows.iter().all(|r| r.value("sync_frac").is_some()),
            "{name} rows missing sync_frac"
        );
    }
}

#[test]
fn subset_runs_reuse_the_same_per_experiment_seed() {
    let runner = ExperimentRunner::new(RunnerConfig {
        scale: Scale::Quick,
        seed: 2021,
        threads: 1,
        trace_cap: None,
        sample_interval: None,
    });
    let only_rounds = runner
        .run(&["rounds".to_string()])
        .expect("rounds resolves");
    let from_full = serial_baseline()
        .iter()
        .find(|r| r.name == "rounds")
        .expect("baseline includes rounds");
    assert_eq!(only_rounds[0].json.to_string_pretty(), from_full.pretty);
    assert_eq!(only_rounds[0].seed, experiment_seed(2021, "rounds"));
    assert_eq!(from_full.seed, experiment_seed(2021, "rounds"));
}

#[test]
fn relay_metrics_histogram_is_consistent_with_figure_output() {
    let report = serial_baseline()
        .iter()
        .find(|r| r.name == "relay")
        .expect("baseline includes relay");
    let result = report.json.get("result").expect("result section");
    let blocks = result
        .get("block_delays")
        .and_then(Value::as_array)
        .expect("block_delays")
        .len();
    let txs = result
        .get("tx_delays")
        .and_then(Value::as_array)
        .expect("tx_delays")
        .len();
    assert!(blocks > 0, "quick relay run must relay blocks");

    let hist = report
        .json
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("node.relay_delay_secs"))
        .expect("relay-delay histogram in metrics");
    let count = hist.get("count").and_then(Value::as_u64).expect("count");
    assert!(count > 0, "relay-delay histogram must be populated");
    // Every relayed object had at least one fresh send observed, so the
    // per-hop histogram can only be larger than the per-object figure data.
    assert!(
        count >= (blocks + txs) as u64,
        "histogram count {count} < {} relayed objects",
        blocks + txs
    );
    // The figure's per-object delays are debug.log-style: both endpoints
    // quantize to whole seconds, so they can exceed the raw hop delay by
    // at most one second of boundary straddle.
    let hist_max = hist.get("max").and_then(Value::as_f64).expect("max");
    let fig_max = result
        .get("block_summary")
        .and_then(|s| s.get("max"))
        .and_then(Value::as_f64)
        .expect("block summary max");
    assert!(
        fig_max <= hist_max + 1.0,
        "figure max {fig_max} exceeds histogram max {hist_max} + 1s quantization"
    );
}

#[test]
fn every_quick_experiment_reports_sim_event_metrics() {
    for report in serial_baseline() {
        assert!(
            report.pretty.contains("\"sim.events_processed\""),
            "{} report lacks sim.events_processed:\n{}",
            report.name,
            report.pretty
        );
        assert!(
            report.pretty.contains("\"metrics\""),
            "{} report lacks metrics",
            report.name
        );
    }
}
