//! Runs one workload in this process and turns what it measured into the
//! metric tables' values.
//!
//! A run has four parts: set-up is timed over repeated constructions; the
//! *reference world* (world seed 2021, what `repro` users run) is replayed
//! for `--seconds`; the *held-out world* (world seed `--seed`) is run once
//! and checked but not timed; and, in a traced run, the layer probes follow.
//!
//! Why the timed world is pinned: a block fan-out is ~15 % of a replay and
//! steps peak RSS by tens of MiB, and blocks are Poisson, so worlds of
//! different seeds differ by ±25 % in host time and ±30 % in memory — far
//! beyond any bound worth setting. Pinned, every replay does identical work
//! (the digest proves it), so the same step can be timed many times.
//!
//! Why `wall_s` sums per-step minima: this sandbox's host time drifts by
//! ±10 % for seconds at a stretch. Interference only ever adds time, and
//! step `i` of every replay is the same computation, so the fastest of its
//! N timings is the best estimate of its cost; summed over steps that is a
//! wall time with a run-to-run spread of ~2 % where the median of whole
//! replays has ~7 %. The same goes for `setup_s`: the fastest construction.

use crate::alloc::{self, AllocStats};
use crate::expected::{Expected, Pin, PINNED_SEEDS};
use crate::metrics::{self, Measured};
use crate::seam::{self, Extracted, Instance, StepKind, Workload};
use crate::span::Spans;
use crate::stats::{median, percentile};
use std::time::{Duration, Instant};

/// The world seed of the timed, replayed world: `repro`'s default.
pub const REFERENCE_SEED: u64 = PINNED_SEEDS[0];

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// World seed of the held-out world, and seed of the probe inputs.
    pub seed: u64,
    /// Host seconds to spend replaying the reference world.
    pub seconds: f64,
    /// Traced run: spans, counts, the counting allocator and the probes;
    /// reports the per-layer table instead of the end-to-end one.
    pub trace: bool,
    /// Simulated durations ÷ 20 and fewer repetitions everywhere.
    pub smoke: bool,
    /// Pin this run's digests instead of checking them.
    pub bless: bool,
}

/// What a run found.
pub struct Report {
    /// Checks attempted: per replay the digest and each shape predicate,
    /// plus the held-out world's.
    pub ops: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The contract metrics: end to end when untraced, per layer when traced.
    pub metrics: Vec<Measured>,
    /// Other numbers worth printing: `(name, value, unit)`.
    pub info: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the reference world.
    pub digest: String,
    /// Digest of the held-out world, when one was run.
    pub held_out_digest: Option<String>,
    /// `sim.events_processed` of the reference world.
    pub events: u64,
    /// The spans of the traced replays (empty when untraced).
    pub spans: Spans,
}

/// Host timings of one replay of the reference world.
struct Replay {
    traced: bool,
    /// Seconds to construct the world(s).
    setup_s: f64,
    /// Seconds per schedule step.
    steps: Vec<f64>,
    /// Simulator events per schedule step (traced replays only).
    step_events: Vec<u64>,
    extract_s: f64,
    render_s: f64,
    /// Allocations during run + extract + render, and peak live bytes since
    /// before construction (traced replays only).
    alloc: Option<AllocStats>,
}

/// What every replay must reproduce exactly.
struct Outcome {
    extracted: Extracted,
    rendered: String,
    digest: String,
    step_kinds: Vec<StepKind>,
}

impl Outcome {
    fn pin(&self) -> Pin {
        Pin {
            digest: self.digest.clone(),
            events: self.extracted.counts.events,
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Builds, runs, extracts and renders one world, timing each part.
fn replay(
    workload: Workload,
    world_seed: u64,
    smoke: bool,
    traced: bool,
    spans: &mut Spans,
    run: usize,
) -> (Replay, Outcome) {
    if traced {
        alloc::start();
    }
    spans.open("workload.run", run);
    spans.open("setup", run);
    let start = Instant::now();
    let mut inst = Instance::build(workload, world_seed, smoke);
    let setup_s = secs(start.elapsed());
    spans.close(0);
    let built = alloc::snapshot();

    let n = inst.steps();
    let mut steps = Vec::with_capacity(n);
    let mut step_events = Vec::with_capacity(n);
    let mut step_kinds = Vec::with_capacity(n);
    let mut events_so_far = 0;
    for i in 0..n {
        let kind = inst.step_kind(i);
        spans.open(
            match kind {
                StepKind::Slice => "run.slice",
                StepKind::Converge => "run.converge",
            },
            run,
        );
        let start = Instant::now();
        inst.run_step(i);
        steps.push(secs(start.elapsed()));
        // Counts are read at the span boundary, in the traced run only.
        let events = if traced { inst.events() } else { 0 };
        spans.close(events - events_so_far);
        step_events.push(events - events_so_far);
        events_so_far = events;
        step_kinds.push(kind);
    }

    spans.open("extract", run);
    let start = Instant::now();
    let extracted = inst.extract();
    let extract_s = secs(start.elapsed());
    spans.close(0);

    spans.open("render", run);
    let start = Instant::now();
    let rendered = extracted.outcome.render();
    let render_s = secs(start.elapsed());
    spans.close(0);
    spans.close(extracted.counts.events);

    let alloc = traced.then(|| {
        let end = alloc::stop();
        AllocStats {
            count: end.count - built.count,
            bytes: end.bytes - built.bytes,
            peak_live: end.peak_live,
        }
    });
    let digest = seam::digest(&rendered, extracted.counts.events);
    (
        Replay {
            traced,
            setup_s,
            steps,
            step_events,
            extract_s,
            render_s,
            alloc,
        },
        Outcome {
            extracted,
            rendered,
            digest,
            step_kinds,
        },
    )
}

fn fastest(replays: &[&Replay], part: impl Fn(&Replay) -> f64) -> f64 {
    replays
        .iter()
        .map(|r| part(r))
        .fold(f64::INFINITY, f64::min)
}

/// Host seconds from the first `run_until` to the rendered result, taking
/// each step at the fastest any replay ran it (see the module docs).
fn floor_wall(replays: &[&Replay]) -> f64 {
    let steps = replays[0].steps.len();
    (0..steps)
        .map(|i| fastest(replays, |r| r.steps[i]))
        .sum::<f64>()
        + fastest(replays, |r| r.extract_s)
        + fastest(replays, |r| r.render_s)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Checks one world's outcome: its digest against the pin (or, unpinned,
/// against `first`, the digest every replay must repeat) and — at full size —
/// the shape predicates. Returns the number of checks made.
fn check(
    what: &str,
    outcome: &Outcome,
    pin: Option<&Pin>,
    must_be_pinned: bool,
    first: Option<&str>,
    smoke: bool,
    failures: &mut Vec<String>,
) -> u64 {
    let mut ops = 0;
    let events = outcome.extracted.counts.events;
    if let Some(pin) = pin {
        ops += 1;
        if pin.digest != outcome.digest || pin.events != events {
            failures.push(format!(
                "{what}: digest {} ({events} events) differs from the pinned {} ({} events)",
                outcome.digest, pin.digest, pin.events
            ));
        }
    } else if must_be_pinned {
        ops += 1;
        failures.push(format!("{what}: no pinned digest; run `run --bless`"));
    } else if let Some(first) = first {
        ops += 1;
        if first != outcome.digest {
            failures.push(format!(
                "{what}: digest {} differs from the first replay's {first}",
                outcome.digest
            ));
        }
    }
    // The predicates describe full-size runs; a ÷20 world is too short for
    // them (no block, a single sync sample).
    if !smoke {
        for (name, ok) in outcome.extracted.outcome.shape_checks() {
            ops += 1;
            if !ok {
                failures.push(format!("{what}: shape predicate {name} failed"));
            }
        }
    }
    ops
}

/// Median ns per call (or per sub-operation) of one probe, over batches of
/// at least `batch` host time each.
fn run_probe(probe: &mut seam::probes::Probe, batches: usize, batch: Duration) -> f64 {
    let mut n = 1u64;
    loop {
        let spent = (probe.run)(n);
        if spent >= batch || n >= 1 << 30 {
            break;
        }
        // Aim a fifth past the target so the next try usually lands.
        let scale = secs(batch) / secs(spent).max(1e-9) * 1.2;
        n = ((n as f64 * scale).ceil() as u64).clamp(n + 1, n * 16);
    }
    let samples: Vec<f64> = (0..batches)
        .map(|_| (probe.run)(n).as_nanos() as f64 / n as f64 / f64::from(probe.ops_per_call))
        .collect();
    median(&samples)
}

/// The per-layer table of a traced run: counts and spans of the reference
/// world's replays, then the layer probes on inputs shaped by the workload.
fn per_layer(
    opts: &Options,
    replays: &[Replay],
    reference: &Outcome,
    setup_per_world_s: f64,
    wall_s: f64,
) -> Vec<Measured> {
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: f64| metrics.push(Measured { name, value });
    let untraced: Vec<&Replay> = replays.iter().filter(|r| !r.traced).collect();
    let counts = reference.extracted.counts;
    let traced: Vec<&Replay> = replays.iter().filter(|r| r.traced).collect();
    let slice_ns: Vec<f64> = (0..traced[0].steps.len())
        .filter(|&i| reference.step_kinds[i] == StepKind::Slice && traced[0].step_events[i] > 0)
        .map(|i| fastest(&traced, |r| r.steps[i]) * 1e9 / traced[0].step_events[i] as f64)
        .collect();
    let ex = &reference.extracted;
    let alloc = traced[0].alloc.expect("traced replays count allocations");
    put("node.world.events", counts.events as f64);
    put("node.world.events_per_s", counts.events as f64 / wall_s);
    put("node.world.ns_per_event_p50", median(&slice_ns));
    put("node.world.ns_per_event_p90", percentile(&slice_ns, 90.0));
    put("node.world.queue_depth_hwm", counts.queue_depth_hwm as f64);
    put("node.world.new_ms", setup_per_world_s * 1e3);
    put("node.pump.rounds", counts.pump_rounds as f64);
    put(
        "node.pump.flushed_per_round",
        ratio(counts.pump_flushed, counts.pump_rounds),
    );
    put(
        "node.pump.empty_round_ratio",
        ratio(counts.pump_empty_rounds, counts.pump_rounds),
    );
    put("node.deliver.messages", counts.delivered as f64);
    put("node.dial.attempts", ex.dial.0 as f64);
    put("node.dial.success_ratio", ratio(ex.dial.1, ex.dial.0));
    put("chain.state.reorgs", counts.reorgs as f64);
    put("sim.fault.messages_dropped", counts.fault_dropped as f64);
    put("sim.trace.events_recorded", ex.trace_recorded as f64);
    put("sim.trace.events_dropped", ex.trace_dropped as f64);
    put("sim.timeseries.rows", ex.timeseries_rows as f64);
    put("alloc.count_per_event", ratio(alloc.count, counts.events));
    put("alloc.bytes_per_event", ratio(alloc.bytes, counts.events));
    put(
        "alloc.peak_live_mib",
        alloc.peak_live as f64 / (1024.0 * 1024.0),
    );
    put(
        "core.report.extract_ms",
        fastest(&untraced, |r| r.extract_s) * 1e3,
    );
    put(
        "json.serialize_ms",
        fastest(&untraced, |r| r.render_s) * 1e3,
    );
    put("json.result_bytes", reference.rendered.len() as f64);
    put("trace_overhead_ratio", floor_wall(&traced) / wall_s);

    let (batches, batch) = if opts.smoke {
        (3, Duration::from_micros(200))
    } else {
        (30, Duration::from_millis(1))
    };
    let shape = opts.workload.probe_shape(opts.seed, counts.queue_depth_hwm);
    for mut probe in seam::probes::all(&shape) {
        let ns = run_probe(&mut probe, batches, batch);
        let value = match probe.bytes_per_call {
            Some(bytes) => bytes as f64 / (1024.0 * 1024.0) / (ns * 1e-9),
            None => ns,
        };
        put(probe.name, value);
        if probe.name == seam::default_queue_probe() {
            // Every event is popped once and was scheduled once.
            put(
                "sim.event.est_share",
                2.0 * counts.events as f64 * ns * 1e-9 / wall_s,
            );
        }
    }
    metrics
}

/// Runs one workload.
pub fn run(opts: &Options, expected: &mut Expected) -> Report {
    let Options {
        workload,
        smoke,
        trace,
        ..
    } = *opts;
    let mut spans = Spans::new(trace);
    let mut no_spans = Spans::new(false);
    let mut failures = Vec::new();
    let mut ops = 0u64;
    let mut info = Vec::new();

    // Set-up, at least 15 times over and for half a second up front; every
    // plain replay's own construction joins the samples further down.
    let (min_setups, setup_budget) = if smoke {
        (3, Duration::ZERO)
    } else {
        (15, Duration::from_millis(500))
    };
    let setup_start = Instant::now();
    let mut worlds = 1;
    let mut setup_samples = Vec::new();
    while setup_samples.len() < min_setups || setup_start.elapsed() < setup_budget {
        let start = Instant::now();
        let inst = Instance::build(workload, REFERENCE_SEED, smoke);
        setup_samples.push(secs(start.elapsed()));
        worlds = inst.worlds();
    }

    // Replay the reference world for the time budget: at least twice, so
    // every run checks that the digest repeats; traced and untraced
    // alternately in a traced run, so the two see the same host conditions.
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let loop_start = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    let mut reference: Option<Outcome> = None;
    loop {
        let k = replays.len();
        let traced = trace && k % 2 == 1;
        let recorder = if traced { &mut spans } else { &mut no_spans };
        let (timing, outcome) = replay(workload, REFERENCE_SEED, smoke, traced, recorder, k);
        replays.push(timing);
        if opts.bless && k == 0 {
            expected.set(smoke, workload, REFERENCE_SEED, outcome.pin());
        }
        ops += check(
            &format!("{} replay {k}", workload.name()),
            &outcome,
            expected.get(smoke, workload, REFERENCE_SEED),
            k == 0,
            reference.as_ref().map(|o| o.digest.as_str()),
            smoke,
            &mut failures,
        );
        reference.get_or_insert(outcome);
        let done = replays.len();
        let mean = loop_start.elapsed() / done as u32;
        if done >= 2 && loop_start.elapsed() + mean > budget {
            break;
        }
    }
    let peak_rss_mib = seam::peak_rss_mib();
    let reference = reference.expect("at least one replay");
    let counts = reference.extracted.counts;

    // The held-out world: inputs made from `--seed`, checked, not timed.
    let mut held_out_digest = None;
    if opts.seed != REFERENCE_SEED {
        let (_, outcome) = replay(workload, opts.seed, smoke, false, &mut no_spans, 0);
        if opts.bless && PINNED_SEEDS.contains(&opts.seed) {
            expected.set(smoke, workload, opts.seed, outcome.pin());
        }
        ops += check(
            &format!("{} held-out world {}", workload.name(), opts.seed),
            &outcome,
            expected.get(smoke, workload, opts.seed),
            PINNED_SEEDS.contains(&opts.seed),
            None,
            smoke,
            &mut failures,
        );
        held_out_digest = Some(outcome.digest);
    }

    let untraced: Vec<&Replay> = replays.iter().filter(|r| !r.traced).collect();
    let wall_s = floor_wall(&untraced);
    // The fastest construction, for the reason `wall_s` takes the fastest
    // step: set-up is allocation-heavy, which this host's slow phases tax
    // most (between sets of ten runs the median of the samples moved by up
    // to 80 %, their minimum by up to 40 %).
    setup_samples.extend(untraced.iter().map(|r| r.setup_s));
    let setup_s = setup_samples.iter().copied().fold(f64::INFINITY, f64::min);
    let whole: Vec<f64> = untraced
        .iter()
        .map(|r| r.steps.iter().sum::<f64>() + r.extract_s + r.render_s)
        .collect();
    info.push(("wall_median_s", median(&whole), "s"));
    info.push(("replays", replays.len() as f64, "count"));
    info.push(("events_per_s", counts.events as f64 / wall_s, "1/s"));

    let mut metrics = if trace {
        if let Some(root) = spans.all().iter().find(|s| s.parent.is_none()) {
            let self_ms = spans.self_time_ns(root.id) as f64 / 1e6;
            info.push(("harness_self_ms", self_ms, "ms"));
        }
        per_layer(opts, &replays, &reference, setup_s / worlds as f64, wall_s)
    } else {
        let measured = |name, value| Measured { name, value };
        vec![
            measured("wall_s", wall_s),
            measured("setup_s", setup_s),
            // Without /proc there is no honest number to give; 0 fails
            // loudly in `compare` rather than passing silently.
            measured("peak_rss_mib", peak_rss_mib.unwrap_or(0.0)),
        ]
    };

    // Table order, whatever order the values were derived in.
    let table = if trace {
        &metrics::PER_LAYER[..]
    } else {
        &metrics::END_TO_END[..]
    };
    metrics.sort_by_key(|m| table.iter().position(|def| def.name == m.name));
    Report {
        ops,
        failures,
        metrics,
        info,
        digest: reference.digest,
        held_out_digest,
        events: counts.events,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(steps: &[f64], extract_s: f64, render_s: f64) -> Replay {
        Replay {
            traced: false,
            setup_s: 0.0,
            steps: steps.to_vec(),
            step_events: Vec::new(),
            extract_s,
            render_s,
            alloc: None,
        }
    }

    #[test]
    fn floor_wall_takes_each_step_at_its_fastest() {
        let a = timing(&[1.0, 5.0, 2.0], 0.5, 0.1);
        let b = timing(&[2.0, 3.0, 4.0], 0.2, 0.3);
        assert!((floor_wall(&[&a, &b]) - (1.0 + 3.0 + 2.0 + 0.2 + 0.1)).abs() < 1e-12);
        assert!((floor_wall(&[&a]) - 8.6).abs() < 1e-12);
    }

    #[test]
    fn digest_repeats_across_two_in_process_runs() {
        for workload in Workload::ALL {
            let mut spans = Spans::new(false);
            let (_, a) = replay(workload, 11, true, false, &mut spans, 0);
            let (_, b) = replay(workload, 11, true, false, &mut spans, 1);
            assert_eq!(a.digest, b.digest, "{}", workload.name());
            assert_eq!(a.rendered, b.rendered);
            assert!(a.extracted.counts.events > 0);
            let (_, c) = replay(workload, 12, true, false, &mut spans, 2);
            assert_ne!(a.digest, c.digest, "{}: seed ignored", workload.name());
        }
    }

    #[test]
    fn traced_replay_records_one_span_per_step_under_one_root() {
        let mut spans = Spans::new(true);
        let (timing, outcome) = replay(Workload::FaultSweepObserved, 11, true, true, &mut spans, 4);
        let all = spans.all();
        let roots: Vec<_> = all.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "workload.run");
        assert!(all.iter().all(|s| s.run == 4));
        let slices = all.iter().filter(|s| s.name == "run.slice").count();
        let converges = all.iter().filter(|s| s.name == "run.converge").count();
        assert_eq!(slices + converges, timing.steps.len());
        assert_eq!(converges, 4);
        for name in ["setup", "extract", "render"] {
            assert_eq!(all.iter().filter(|s| s.name == name).count(), 1, "{name}");
        }
        let span_events: u64 = all
            .iter()
            .filter(|s| s.parent == Some(roots[0].id))
            .map(|s| s.events)
            .sum();
        assert_eq!(span_events, outcome.extracted.counts.events);
        assert_eq!(roots[0].events, outcome.extracted.counts.events);
        let alloc = timing.alloc.expect("traced");
        assert!(alloc.count > 0 && alloc.bytes > 0 && alloc.peak_live > 0);
        assert!(spans.self_time_ns(roots[0].id) < roots[0].dur_ns());
    }
}
