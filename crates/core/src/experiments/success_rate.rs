//! Figure 7: the success rate of outgoing-connection attempts.
//!
//! The paper started a fresh node five times, ran it five minutes each, and
//! counted attempts vs. successful connections: 11.2% success on average,
//! 5.8% (8/137) in the worst run, and one run with 15 successes because
//! established connections dropped and were replaced.

use crate::experiments::registry::{Experiment, Scale};
use crate::experiments::sweep::{self, Cell, Run};
use bitsync_json::{ToJson, Value};
use bitsync_node::world::WorldConfig;
use bitsync_node::NodeId;
use bitsync_sim::time::SimDuration;
use bitsync_sim::Instruments;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct SuccessRateConfig {
    /// Base seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Number of independent runs (paper: 5).
    pub runs: usize,
    /// World size.
    pub n_reachable: usize,
    /// Phantom pool size.
    pub n_phantoms: usize,
    /// Phantoms seeded into the observed node's book (paper-calibrated
    /// pollution: ~89% of the book unreachable).
    pub seed_phantoms: usize,
}

impl SuccessRateConfig {
    /// Paper-shaped defaults.
    pub fn paper(seed: u64) -> Self {
        SuccessRateConfig {
            seed,
            runs: 5,
            n_reachable: 60,
            n_phantoms: 4_000,
            seed_phantoms: 350,
        }
    }

    /// Full-scale variant: the same five 5-minute runs, but with the
    /// phantom pool grown to the tens of thousands of unreachable
    /// addresses a real node's addrman draws from. Per-node address-book
    /// state is what drives Figure 7 — more *simulated reachable* nodes
    /// would only slow the event loop without changing the rate.
    pub fn full(seed: u64) -> Self {
        SuccessRateConfig {
            n_phantoms: 40_000,
            seed_phantoms: 3_500,
            ..Self::paper(seed)
        }
    }

    /// Faster test variant.
    pub fn quick(seed: u64) -> Self {
        SuccessRateConfig {
            runs: 3,
            n_reachable: 30,
            n_phantoms: 1_000,
            seed_phantoms: 150,
            ..Self::paper(seed)
        }
    }
}

/// One run's counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunCounts {
    /// Outgoing attempts started.
    pub attempts: u64,
    /// Attempts that completed a handshake.
    pub successes: u64,
}

impl RunCounts {
    /// Success rate in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }
}

impl ToJson for RunCounts {
    fn to_json(&self) -> Value {
        Value::object()
            .with("attempts", self.attempts)
            .with("successes", self.successes)
    }
}

/// Figure 7 output.
#[derive(Clone, Debug)]
pub struct SuccessRateResult {
    /// Per-run counts.
    pub runs: Vec<RunCounts>,
}

impl SuccessRateResult {
    /// Mean success rate across runs (paper: 11.2%).
    pub fn mean_rate(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(RunCounts::rate).sum::<f64>() / self.runs.len() as f64
    }

    /// The worst run's rate (paper: 5.8%).
    pub fn worst_rate(&self) -> f64 {
        self.runs
            .iter()
            .map(RunCounts::rate)
            .fold(f64::MAX, f64::min)
    }
}

impl ToJson for SuccessRateResult {
    fn to_json(&self) -> Value {
        Value::object()
            .with("runs", self.runs.iter().collect::<Vec<_>>())
            .with("mean_rate", self.mean_rate())
            .with("worst_rate", self.worst_rate())
    }
}

/// Duration of each run (paper: 5 minutes).
const RUN_DURATION: SimDuration = SimDuration::from_mins(5);
/// Reachable addresses seeded into the observed node's book.
const SEED_REACHABLE: usize = 32;
/// Per-connection lifetime (drops force replacement attempts).
const CONNECTION_MEAN_LIFETIME: SimDuration = SimDuration::from_secs(120);

/// One fresh world per run `i` (seed `seed + i`, rows labelled `run<i>`),
/// mirroring the paper's restart-per-experiment protocol; it runs its whole
/// duration as the warm-up and takes no sample.
pub fn cells(cfg: &SuccessRateConfig) -> Vec<Cell<()>> {
    let cell = |i: usize| Cell {
        ctx: Some(format!("run{i}")),
        world: WorldConfig {
            seed: cfg.seed.wrapping_add(i as u64),
            n_reachable: cfg.n_reachable,
            n_unreachable_full: 0,
            n_phantoms: cfg.n_phantoms,
            seed_phantoms: cfg.seed_phantoms,
            seed_reachable: SEED_REACHABLE,
            connection_mean_lifetime: Some(CONNECTION_MEAN_LIFETIME),
            ..WorldConfig::default()
        },
        warmup: RUN_DURATION,
        duration: SimDuration::ZERO,
        every: RUN_DURATION,
        probe: |_| (),
        convergence_grace: None,
    };
    (0..cfg.runs).map(cell).collect()
}

/// One run's counts: the observed node's dial statistics at the end.
pub fn assemble(run: Run<()>) -> RunCounts {
    let node = run.world.node(NodeId(0));
    let stats = node.map(|n| n.stats).unwrap_or_default();
    RunCounts {
        attempts: stats.attempts,
        successes: stats.successes,
    }
}

/// Runs the Figure 7 experiment. Every per-run world reports into the one
/// `ins`: the initiator id plus event order distinguish runs in the trace,
/// the row context in the timeseries.
pub fn run(cfg: &SuccessRateConfig, ins: &Instruments) -> SuccessRateResult {
    let measure = |cell: Cell<()>| assemble(sweep::run(&cell, ins));
    let runs = cells(cfg).into_iter().map(measure).collect();
    SuccessRateResult { runs }
}

/// Registry row for the Figure 7 success-rate experiment.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig7",
    artifact: "fig7_success_rate",
    paper_targets: &["Fig. 7 connection success rate (11.2%)"],
    run: |scale, seed, ins| {
        let cfg = match scale {
            Scale::Quick => SuccessRateConfig::quick(seed),
            Scale::Scaled => SuccessRateConfig::paper(seed),
            Scale::Full => SuccessRateConfig::full(seed),
        };
        let r = run(&cfg, ins);
        (r.to_json(), crate::report::render_fig7(&r))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_rate_is_low_as_in_the_paper() {
        let result = run(&SuccessRateConfig::quick(1), &Instruments::default());
        assert_eq!(result.runs.len(), 3);
        for r in &result.runs {
            assert!(r.attempts > 0, "no attempts recorded");
            assert!(r.successes <= r.attempts);
        }
        let mean = result.mean_rate();
        // The paper's headline: most attempts fail. At quick scale the rate
        // should sit far below 50% and above zero.
        assert!(mean > 0.01 && mean < 0.45, "mean success rate {mean}");
    }

    #[test]
    fn worst_is_at_most_mean() {
        let result = run(&SuccessRateConfig::quick(2), &Instruments::default());
        assert!(result.worst_rate() <= result.mean_rate() + 1e-12);
    }
}
