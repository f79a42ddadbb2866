//! The unified experiment registry: every paper artifact implements one
//! trait, and the parallel runner executes any subset of them with
//! deterministic, thread-count-independent output.
//!
//! Determinism is layered:
//!
//! 1. each experiment's seed is a pure function of the global seed and the
//!    experiment's name ([`experiment_seed`]), so the set of experiments
//!    requested never perturbs any individual run;
//! 2. each experiment builds its own world and is handed its own
//!    [`Instruments`], so nothing is shared across worker threads;
//! 3. results are emitted in registry order and serialized with the
//!    insertion-ordered [`bitsync_json`] printer.

use bitsync_json::Value;
use bitsync_sim::Instruments;

/// How big to make each experiment's world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Test-sized worlds; every experiment finishes in seconds.
    Quick,
    /// The default scaled-down reproduction (see EXPERIMENTS.md).
    Scaled,
    /// Full paper scale where a paper-sized variant exists.
    Paper,
    /// Full paper scale through the closed-form fast paths: the census runs
    /// its entire 10K-reachable / ~700K-unreachable campaign via the
    /// sampled crawl, and the per-node experiments pollute their address
    /// books at the full census ratio. See EXPERIMENTS.md §"Population
    /// scale".
    Full,
}

impl Scale {
    /// Parses the `--scale` flag value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "scaled" => Some(Scale::Scaled),
            "paper" => Some(Scale::Paper),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The flag spelling of this scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Scaled => "scaled",
            Scale::Paper => "paper",
            Scale::Full => "full",
        }
    }
}

/// One paper artifact: a named, seedable, independently runnable
/// experiment producing an erased JSON result.
///
/// The lifecycle is `configure(scale, seed)` once, then `run(instruments)`
/// once; [`Experiment::rendered`] returns the human-readable figure/table
/// text of the last run.
pub trait Experiment: Send {
    /// Stable name — the CLI target and registry key.
    fn name(&self) -> &'static str;

    /// Basename (without `.json`) of the artifact file `repro --json`
    /// writes; defaults to [`Experiment::name`].
    fn artifact(&self) -> &'static str {
        self.name()
    }

    /// The paper figures/tables/sections this experiment reproduces.
    fn paper_targets(&self) -> &'static [&'static str];

    /// Prepares the experiment's config for `scale`, seeded with `seed`.
    fn configure(&mut self, scale: Scale, seed: u64);

    /// Executes the experiment and returns the erased result. Every world
    /// (or crawl) it builds reports into `ins` — metrics always, trace
    /// events and timeseries rows when the caller enabled them. The
    /// handles only observe: the result must not depend on which are on.
    fn run(&mut self, ins: &Instruments) -> Value;

    /// The paper-style text report of the last [`Experiment::run`].
    fn rendered(&self) -> Option<String> {
        None
    }
}

/// A fresh-experiment constructor, the registry's unit of registration.
pub type Constructor = fn() -> Box<dyn Experiment>;

/// Every experiment, in report order. Each entry constructs a fresh,
/// unconfigured instance so concurrent runs never share state.
pub static REGISTRY: &[Constructor] = &[
    || Box::<super::rounds::RoundsExperiment>::default(),
    || Box::<super::stability::StabilityExperiment>::default(),
    || Box::<super::success_rate::SuccessRateExperiment>::default(),
    || Box::<super::relay::RelayExperiment>::default(),
    || Box::<super::census::CensusExperiment>::default(),
    || Box::<super::sync_kde::SyncExperiment>::default(),
    || Box::<super::resync::ResyncExperiment>::default(),
    || Box::<super::partition::PartitionExperiment>::default(),
    || Box::<super::ablation::AblationExperiment>::default(),
    || Box::<super::resilience::ResilienceExperiment>::default(),
    || Box::<super::forkstress::ForkStressExperiment>::default(),
];

/// The registered experiment names, in registry order.
pub fn experiment_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|ctor| ctor().name()).collect()
}

/// Derives an experiment's private seed from the global seed and its name.
///
/// The derivation is a pure function, so serial and parallel runs — and
/// runs of different target subsets — give every experiment the same seed.
pub fn experiment_seed(base: u64, name: &str) -> u64 {
    // FNV-1a over the name, then a splitmix64 finalizer over the mix.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = base ^ h;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names = experiment_names();
        assert_eq!(names.len(), REGISTRY.len());
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate experiment names");
        assert!(names.contains(&"relay"));
        assert!(names.contains(&"census"));
    }

    #[test]
    fn seeds_differ_per_experiment_but_are_reproducible() {
        let a = experiment_seed(2021, "relay");
        let b = experiment_seed(2021, "census");
        assert_ne!(a, b);
        assert_eq!(a, experiment_seed(2021, "relay"));
        assert_ne!(a, experiment_seed(2022, "relay"));
    }

    #[test]
    fn constructors_build_unconfigured_fresh_instances() {
        for ctor in REGISTRY {
            let exp = ctor();
            assert!(!exp.name().is_empty());
            assert!(!exp.paper_targets().is_empty());
            assert!(exp.rendered().is_none(), "{} pre-rendered", exp.name());
        }
    }
}
