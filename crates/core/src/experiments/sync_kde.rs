//! Figure 1 and §IV-D: the synchronization distribution under 2019-like vs
//! 2020-like churn, and the synchronized-departure rate that separates the
//! two years.
//!
//! The paper: with an unchanged protocol and a constant ~10K reachable
//! network, mean synchronization fell from 72.02% (Sep–Dec 2019) to 61.91%
//! (Jan–Apr 2020); the only measured change was the churn among
//! *synchronized* nodes, which doubled from 3.9 to 7.6 departures per
//! 10 minutes.
//!
//! The scenario runs a scaled network where the *only* difference between
//! the two arms is the churn model ([`ChurnConfig::paper_2019`] vs
//! [`ChurnConfig::paper_2020`]); everything else — addressing, relaying,
//! IBD costs, laggard level — is held fixed, mirroring the paper's
//! "protocols did not change between the years" argument.

use crate::experiments::registry::{Experiment, Scale};
use crate::experiments::sweep::{self, Cell, Run};
use bitsync_analysis::churn::{mean_synchronized_departures, Departure};
use bitsync_analysis::{Kde, Summary};
use bitsync_json::{ToJson, Value};
use bitsync_net::churn::ChurnConfig;
use bitsync_node::world::{ChurnEvent, World, WorldConfig};
use bitsync_sim::time::SimDuration;
use bitsync_sim::Instruments;

/// Which measurement-period regime to reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Year {
    /// September–December 2019 (lower churn).
    Y2019,
    /// January–April 2020 (doubled synchronized-node churn).
    Y2020,
}

impl Year {
    /// The churn model of this regime.
    pub fn churn(self) -> ChurnConfig {
        match self {
            Year::Y2019 => ChurnConfig::paper_2019(),
            Year::Y2020 => ChurnConfig::paper_2020(),
        }
    }
}

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct SyncScenarioConfig {
    /// Random seed.
    pub seed: u64,
    /// Reachable network size (scaled; the paper's network is ~10K).
    pub n_reachable: usize,
    /// Unreachable full nodes.
    pub n_unreachable_full: usize,
    /// Scenario duration.
    pub duration: SimDuration,
    /// Block interval.
    pub block_interval: SimDuration,
    /// Mean fresh-arrival IBD time (days-long in reality).
    pub ibd_fresh_mean: SimDuration,
    /// Persistent-laggard fraction (stale-tip nodes; see
    /// `WorldConfig::laggard_fraction`).
    pub laggard_fraction: f64,
    /// Churn acceleration: divide lifetimes by this to fit a short
    /// simulation window while keeping the 2:1 ratio between years intact.
    pub churn_speedup: f64,
    /// Warm-up before snapshots start.
    pub warmup: SimDuration,
}

impl SyncScenarioConfig {
    /// Default scaled scenario (see EXPERIMENTS.md for the scale mapping).
    pub fn scaled(seed: u64) -> Self {
        SyncScenarioConfig {
            seed,
            n_reachable: 150,
            n_unreachable_full: 30,
            duration: SimDuration::from_hours(96),
            block_interval: SimDuration::from_secs(600),
            ibd_fresh_mean: SimDuration::from_hours(240),
            laggard_fraction: 0.20,
            churn_speedup: 24.0,
            warmup: SimDuration::from_hours(12),
        }
    }

    /// Fast test variant. Keeps the scaled IBD debt so the 2019/2020
    /// contrast stays visible above small-network noise.
    pub fn quick(seed: u64) -> Self {
        SyncScenarioConfig {
            n_reachable: 36,
            n_unreachable_full: 8,
            duration: SimDuration::from_hours(5),
            block_interval: SimDuration::from_secs(300),
            churn_speedup: 48.0,
            warmup: SimDuration::from_mins(30),
            ..Self::scaled(seed)
        }
    }
}

/// One arm's (one year's) results.
#[derive(Clone, Debug)]
pub struct YearResult {
    /// Which regime.
    pub year: Year,
    /// Synchronization fraction per 10-minute snapshot.
    pub sync_samples: Vec<f64>,
    /// Summary of the samples.
    pub summary: Summary,
    /// Mean synchronized departures per 10-minute window.
    pub sync_departures_per_10min: f64,
    /// Total departures observed.
    pub total_departures: usize,
}

impl YearResult {
    /// KDE over the synchronization samples (the Figure 1 curve).
    pub fn kde(&self) -> Option<Kde> {
        Kde::fit(&self.sync_samples)
    }
}

impl ToJson for YearResult {
    fn to_json(&self) -> Value {
        Value::object()
            .with("year", format!("{:?}", self.year))
            .with("sync_samples", self.sync_samples.clone())
            .with("summary", &self.summary)
            .with("sync_departures_per_10min", self.sync_departures_per_10min)
            .with("total_departures", self.total_departures)
    }
}

/// The full Figure 1 comparison.
#[derive(Clone, Debug)]
pub struct SyncComparison {
    /// The 2019-like arm.
    pub y2019: YearResult,
    /// The 2020-like arm.
    pub y2020: YearResult,
}

impl SyncComparison {
    /// Drop in mean synchronization from 2019 to 2020 (paper: ~10 points).
    pub fn mean_drop(&self) -> f64 {
        self.y2019.summary.mean - self.y2020.summary.mean
    }

    /// Ratio of synchronized departures 2020:2019 (paper: 7.6/3.9 ≈ 1.95).
    pub fn departure_ratio(&self) -> f64 {
        if self.y2019.sync_departures_per_10min == 0.0 {
            return f64::NAN;
        }
        self.y2020.sync_departures_per_10min / self.y2019.sync_departures_per_10min
    }
}

impl ToJson for SyncComparison {
    fn to_json(&self) -> Value {
        Value::object()
            .with("y2019", &self.y2019)
            .with("y2020", &self.y2020)
            .with("mean_drop", self.mean_drop())
            .with("departure_ratio", self.departure_ratio())
    }
}

/// Snapshot interval (paper/Bitnodes: 10 minutes).
const SNAPSHOT_INTERVAL: SimDuration = SimDuration::from_mins(10);

/// The two arms, 2019 then 2020, differing only in churn (rows `y2019` /
/// `y2020`, [`World::sync_fraction`] sampled every snapshot). Node 0 is
/// relay-instrumented, which fills the `node.relay_delay_secs` histogram
/// and the sampler's windowed relay quantiles; it draws and schedules
/// nothing, so it moves no other number.
pub fn cells(cfg: &SyncScenarioConfig) -> [(Year, Cell<f64>); 2] {
    // Accelerate both lifetimes and IBD by the same factor so the
    // steady-state unsynchronized fraction is preserved.
    let ibd = SimDuration::from_secs_f64(cfg.ibd_fresh_mean.as_secs_f64() / cfg.churn_speedup);
    [(Year::Y2019, "y2019"), (Year::Y2020, "y2020")].map(|(year, ctx)| {
        let cell = Cell {
            ctx: Some(ctx.to_string()),
            world: WorldConfig {
                seed: cfg.seed,
                n_reachable: cfg.n_reachable,
                n_unreachable_full: cfg.n_unreachable_full,
                n_phantoms: 2_000,
                seed_phantoms: 150,
                churn: Some(year.churn().sped_up(cfg.churn_speedup)),
                block_interval: Some(cfg.block_interval),
                ibd_fresh_mean: Some(ibd),
                permanent_fraction: 0.25,
                laggard_fraction: cfg.laggard_fraction,
                instrument: Some(0),
                ..WorldConfig::default()
            },
            warmup: cfg.warmup,
            duration: cfg.duration,
            every: SNAPSHOT_INTERVAL,
            probe: World::sync_fraction,
            convergence_grace: None,
        };
        (year, cell)
    })
}

/// One arm's result from its run.
pub fn assemble(cfg: &SyncScenarioConfig, year: Year, run: Run<f64>) -> YearResult {
    let departures: Vec<Departure> = run
        .world
        .churn_events
        .iter()
        .filter_map(|(at, e)| match e {
            ChurnEvent::Departed { synchronized, .. } => Some(Departure {
                at_secs: at.as_secs(),
                synchronized: *synchronized,
            }),
            _ => None,
        })
        .collect();
    let horizon = (cfg.warmup + cfg.duration).as_secs();
    let sync_departures_per_10min = mean_synchronized_departures(&departures, horizon, 600);
    YearResult {
        year,
        summary: Summary::of(&run.samples).expect("non-empty samples"),
        sync_samples: run.samples,
        sync_departures_per_10min,
        total_departures: departures.len(),
    }
}

/// Runs both arms into the one `ins`: the 2019 arm's trace events and rows
/// come first, each arm restarting sim time at zero.
pub fn run(cfg: &SyncScenarioConfig, ins: &Instruments) -> SyncComparison {
    let [y2019, y2020] = cells(cfg).map(|(year, cell)| assemble(cfg, year, sweep::run(&cell, ins)));
    SyncComparison { y2019, y2020 }
}

/// Registry row for the Figure 1 synchronization comparison.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig1",
    artifact: "fig1_sync",
    paper_targets: &[
        "Fig. 1 synchronization KDE 2019 vs 2020",
        "§IV-D synchronized departures (3.9 vs 7.6 per 10 min)",
    ],
    run: |scale, seed, ins| {
        let cfg = match scale {
            Scale::Quick => SyncScenarioConfig::quick(seed),
            _ => SyncScenarioConfig::scaled(seed),
        };
        let r = run(&cfg, ins);
        (r.to_json(), crate::report::render_fig1(&r))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_churn_means_lower_sync_and_more_departures() {
        let cmp = run(&SyncScenarioConfig::quick(3), &Instruments::default());
        assert!(!cmp.y2019.sync_samples.is_empty());
        // Direction of both paper results.
        assert!(
            cmp.y2020.summary.mean <= cmp.y2019.summary.mean + 0.02,
            "2020 {} vs 2019 {}",
            cmp.y2020.summary.mean,
            cmp.y2019.summary.mean
        );
        assert!(
            cmp.y2020.total_departures >= cmp.y2019.total_departures,
            "departures 2020 {} vs 2019 {}",
            cmp.y2020.total_departures,
            cmp.y2019.total_departures
        );
    }

    #[test]
    fn sync_fraction_is_a_probability() {
        let cmp = run(&SyncScenarioConfig::quick(4), &Instruments::default());
        for s in cmp.y2019.sync_samples.iter().chain(&cmp.y2020.sync_samples) {
            assert!((0.0..=1.0).contains(s), "sample {s}");
        }
    }

    #[test]
    fn kde_fits() {
        let cmp = run(&SyncScenarioConfig::quick(5), &Instruments::default());
        assert!(cmp.y2019.kde().is_some());
        assert!(cmp.y2020.kde().is_some());
    }
}
