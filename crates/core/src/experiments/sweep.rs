//! The mechanics the multi-world experiments
//! ([`resilience`](super::resilience), [`forkstress`](super::forkstress),
//! [`ablation`](super::ablation), [`sync_kde`](super::sync_kde)) share: the
//! `intensity × {off, on}` grid, the warm-up + fixed-cadence sampling loop,
//! per-cell counter deltas over the recorder all cells of a sweep report
//! into, and the sample reductions.

use bitsync_analysis::Summary;
use bitsync_node::world::World;
use bitsync_sim::metrics::Recorder;
use bitsync_sim::time::{SimDuration, SimTime};

/// Runs `cell` over the `intensity × {off, on}` grid in sweep order: `off`
/// before `on` within each intensity, so with a leading `0.0` the first
/// cell is the unstressed, unprotected §IV baseline.
pub fn grid<C>(intensities: &[f64], mut cell: impl FnMut(f64, bool) -> C) -> Vec<C> {
    let points = intensities.iter().flat_map(|&i| [(i, false), (i, true)]);
    points.map(|(i, on)| cell(i, on)).collect()
}

/// Runs `world` through `warmup`, then on to `warmup + duration` in steps
/// of `every`, taking one `sample` after each step.
pub fn sample_run<S>(
    world: &mut World,
    warmup: SimDuration,
    duration: SimDuration,
    every: SimDuration,
    mut sample: impl FnMut(&World) -> S,
) -> Vec<S> {
    let mut t = SimTime::ZERO + warmup;
    world.run_until(t);
    let end = t + duration;
    let mut samples = Vec::new();
    while t < end {
        t += every;
        world.run_until(t);
        samples.push(sample(world));
    }
    samples
}

/// Reads the `names` counters now and returns a reader of how far each has
/// advanced since: a cell's own contribution to the shared recorder.
pub fn counter_deltas<'a, const N: usize>(
    metrics: &'a Recorder,
    names: [&'a str; N],
) -> impl Fn() -> [u64; N] + 'a {
    let before = names.map(|name| metrics.counter(name));
    move || std::array::from_fn(|i| metrics.counter(names[i]) - before[i])
}

/// Mean and minimum of a sample series; `(0, ∞)` when empty.
pub fn mean_min(samples: &[f64]) -> (f64, f64) {
    Summary::of(samples).map_or((0.0, f64::INFINITY), |s| (s.mean, s.min))
}

/// Mean block relay delay at the world's instrumented node, seconds.
pub fn mean_block_relay_secs(world: &World) -> Option<f64> {
    let delays: Vec<f64> = world
        .relay_delays()
        .into_iter()
        .filter(|(is_block, _)| *is_block)
        .map(|(_, d)| d as f64)
        .collect();
    Summary::of(&delays).map(|s| s.mean)
}
