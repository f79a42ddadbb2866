//! The one driver of the experiments that are lists of worlds: fig1
//! ([`sync_kde`](super::sync_kde)), fig6 ([`stability`](super::stability)),
//! fig7 ([`success_rate`](super::success_rate)), [`ablation`](super::ablation),
//! [`resilience`](super::resilience) and [`forkstress`](super::forkstress).
//! Each is a config, a `cells()` list of [`Cell`]s in run order (fig6: one
//! `cell()`) and an assembler of each cell's [`Run`]; [`run`] does
//! everything between. The cells share one [`Instruments`], and each is
//! assembled before the next world is built.
//!
//! `relay`, `rounds`, `resync` and `partition` keep their own loops: they
//! act on a world mid-run (a forced star, a partition, a restart).

use bitsync_analysis::Summary;
use bitsync_node::world::{World, WorldConfig};
use bitsync_sim::fault::FaultConfig;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::Instruments;
use std::collections::BTreeMap;

/// One world of an experiment and how to measure it: what [`run`] samples
/// is part of the cell, so a cell list and its assembler cannot disagree.
#[derive(Clone, Debug)]
pub struct Cell<S> {
    /// Label stamped onto the world's timeseries rows (`None`: unlabelled).
    pub ctx: Option<String>,
    /// The world.
    pub world: WorldConfig,
    /// Run before the first sample.
    pub warmup: SimDuration,
    /// Measured span after the warm-up; zero takes no sample.
    pub duration: SimDuration,
    /// Sampling cadence over the measured span.
    pub every: SimDuration,
    /// What is read off the world after each cadence step.
    pub probe: fn(&World) -> S,
    /// When set, the faults end after the measured span and the world gets
    /// this long to converge on a single chain ([`Run::convergence`]).
    pub convergence_grace: Option<SimDuration>,
}

/// A cell's world after its run, with what the driver measured.
pub struct Run<S> {
    /// The world, stopped at its last instant.
    pub world: World,
    /// One probe per cadence step.
    pub samples: Vec<S>,
    /// Time from the end of the faults to single-chain convergence; `None`
    /// when it did not happen within the grace or the cell has no grace.
    pub convergence: Option<SimDuration>,
    /// How far each counter of the shared recorder advanced in this cell.
    added: BTreeMap<String, u64>,
}

impl<S> Run<S> {
    /// The cell's own contribution to the named counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.added.get(name).copied().unwrap_or(0)
    }
}

/// Runs `cell` into `ins`: builds and attaches its world, runs it through
/// the warm-up, then on to `warmup + duration` in steps of `every`, taking
/// one [`Cell::probe`] after each step.
pub fn run<S>(cell: &Cell<S>, ins: &Instruments) -> Run<S> {
    ins.sampler.set_ctx(cell.ctx.as_deref());
    let mut world = World::new(cell.world.clone());
    world.attach(ins);
    let before = ins.metrics.counters();

    let mut t = SimTime::ZERO + cell.warmup;
    world.run_until(t);
    let end = t + cell.duration;
    let mut samples = Vec::new();
    while t < end {
        t += cell.every;
        world.run_until(t);
        samples.push((cell.probe)(&world));
    }
    // Storm over: stop the weather and clock the recovery.
    let convergence = cell.convergence_grace.and_then(|grace| {
        world.end_faults();
        world.check_convergence(grace)
    });

    let mut added = ins.metrics.counters();
    for (name, n) in &mut added {
        *n -= before.get(name).copied().unwrap_or(0);
    }
    Run {
        world,
        samples,
        convergence,
        added,
    }
}

/// A fault sweep's cells keyed `(intensity, switch on)`.
pub type Grid<S> = Vec<((f64, bool), Cell<S>)>;

/// The fault sweeps' `intensity × {off, on}` grid over `base`, keyed
/// `(intensity, on)`: `fault.scaled(intensity)` with Core's countermeasure
/// switch off or on, labelled `i<intensity>/<switch>_{on,off}`, `off` first
/// — so with a leading `0.0` the first cell is the unstressed §IV baseline.
pub fn grid<S: Clone>(
    base: &Cell<S>,
    fault: &FaultConfig,
    intensities: &[f64],
    switch: &str,
) -> Grid<S> {
    let points = intensities.iter().flat_map(|&i| [(i, false), (i, true)]);
    let cell = |(intensity, on): (f64, bool)| {
        let mut cell = base.clone();
        let state = if on { "on" } else { "off" };
        cell.ctx = Some(format!("i{intensity}/{switch}_{state}"));
        cell.world.fault = fault.scaled(intensity);
        cell.world.node_cfg.resilience.countermeasures = on;
        ((intensity, on), cell)
    };
    points.map(cell).collect()
}

/// The world the three mesh sweeps start from: a block every 10 minutes,
/// 0.2 tx/s, 30-minute IBD for arrivals, node 0 relay-instrumented.
pub fn mesh(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        block_interval: Some(SimDuration::from_secs(600)),
        tx_rate: 0.2,
        ibd_fresh_mean: Some(SimDuration::from_mins(30)),
        instrument: Some(0),
        ..WorldConfig::default()
    }
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

/// Runs `cells` in order into one recorder and checks that every counter it
/// holds is the sum of the cells' own deltas, and that the last cell, run
/// alone, assembles to the same JSON: a cell's numbers do not depend on what
/// ran before it. Returns the assembled results and the recorder, so the
/// caller can check its result fields against the counters they read.
#[cfg(test)]
pub(crate) fn check_per_cell_deltas<K: Copy, S, R: bitsync_json::ToJson>(
    cells: impl IntoIterator<Item = (K, Cell<S>)>,
    assemble: impl Fn(K, Run<S>) -> R,
) -> (Vec<R>, Instruments) {
    let cells: Vec<_> = cells.into_iter().collect();
    let ins = Instruments::default();
    let mut summed = BTreeMap::<String, u64>::new();
    let mut swept = Vec::new();
    for (key, cell) in &cells {
        let run = run(cell, &ins);
        for (name, n) in &run.added {
            *summed.entry(name.clone()).or_default() += n;
        }
        swept.push(assemble(*key, run));
    }
    assert_eq!(summed, ins.metrics.counters());

    let (key, cell) = cells.last().expect("cells");
    let alone = assemble(*key, run(cell, &Instruments::default()));
    let last = swept.last().expect("cells");
    assert_eq!(alone.to_json().to_string(), last.to_json().to_string());
    (swept, ins)
}

#[cfg(test)]
mod tests {
    use super::check_per_cell_deltas as check;
    use crate::experiments::{stability, success_rate, sync_kde};

    /// Cells share one recorder, so each must report its own contribution.
    /// Ablation, resilience and forkstress make the same check in their own
    /// module tests, on the sweeps those tests already run.
    #[test]
    fn counters_are_per_cell_deltas_of_the_shared_recorder() {
        let fig1 = sync_kde::SyncScenarioConfig::quick(3);
        check(sync_kde::cells(&fig1), |year, run| {
            sync_kde::assemble(&fig1, year, run)
        });
        let fig6 = stability::cell(&stability::StabilityConfig::quick(7));
        check([((), fig6)], |(), run| stability::assemble(run));
        let fig7 = success_rate::cells(&success_rate::SuccessRateConfig::quick(1));
        check(fig7.into_iter().enumerate(), |_, run| {
            success_rate::assemble(run)
        });
    }
}
