//! The experiment registry: every paper artifact is one [`Experiment`]
//! row of the static [`REGISTRY`] table, and the parallel runner executes
//! any subset of the rows with deterministic, thread-count-independent
//! output.
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
    /// Full paper scale through the closed-form fast paths: the census runs
    /// its entire 10K-reachable / ~700K-unreachable campaign via the
    /// sampled crawl, and the per-node experiments pollute their address
    /// books at the full census ratio. See EXPERIMENTS.md §"Population
    /// scale".
    Full,
}

impl Scale {
    /// Every scale, in size order.
    pub const ALL: [Scale; 3] = [Scale::Quick, Scale::Scaled, Scale::Full];

    /// Parses the `--scale` flag value.
    pub fn parse(s: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|scale| scale.name() == s)
    }

    /// The flag spelling of this scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Scaled => "scaled",
            Scale::Full => "full",
        }
    }
}

/// One paper artifact: a named, seedable, independently runnable row of
/// the [`REGISTRY`]. Plain data — reading a name costs nothing and there
/// is no lifecycle to get wrong.
pub struct Experiment {
    /// Stable name — the CLI target and registry key.
    pub name: &'static str,
    /// The paper-artifact name: the basename (without `.json`) of the golden
    /// snapshot under `tests/golden/`, recorded in the bundle manifest.
    pub artifact: &'static str,
    /// The paper figures/tables/sections this experiment reproduces.
    pub paper_targets: &'static [&'static str],
    /// Runs the experiment at `scale` with its derived `seed` and returns
    /// the erased result plus its paper-style text report. Every world (or
    /// crawl) it builds reports into the [`Instruments`] — metrics always,
    /// trace events and timeseries rows when the caller enabled them. The
    /// handles only observe: the result must not depend on which are on.
    pub run: fn(Scale, u64, &Instruments) -> (Value, String),
}

/// Every experiment, in report order.
pub static REGISTRY: &[Experiment] = &[
    super::rounds::EXPERIMENT,
    super::stability::EXPERIMENT,
    super::success_rate::EXPERIMENT,
    super::relay::EXPERIMENT,
    super::census::EXPERIMENT,
    super::sync_kde::EXPERIMENT,
    super::resync::EXPERIMENT,
    super::partition::EXPERIMENT,
    super::ablation::EXPERIMENT,
    super::resilience::EXPERIMENT,
    super::forkstress::EXPERIMENT,
];

/// The registered experiment names, in registry order.
pub fn experiment_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|exp| exp.name).collect()
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
    fn rows_name_their_artifact_and_targets() {
        for exp in REGISTRY {
            assert!(!exp.name.is_empty());
            assert!(!exp.artifact.is_empty(), "{}", exp.name);
            assert!(!exp.paper_targets.is_empty(), "{}", exp.name);
        }
    }

    #[test]
    fn retired_paper_scale_no_longer_parses() {
        for scale in Scale::ALL {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
        assert_eq!(Scale::parse("paper"), None);
    }
}
