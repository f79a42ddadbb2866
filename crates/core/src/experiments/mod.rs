//! One module per paper artifact. Each experiment has a `run` function, a
//! serializable result, and one `EXPERIMENT` row that enters it in the
//! [`REGISTRY`]; the `bitsync-bench` crate renders them as the paper's
//! tables and figures, and [`write_bundle`] files a finished run as one
//! directory. The six experiments that are lists of worlds also expose
//! their `cells()` and an assembler; [`sweep::run`] runs each cell.
//!
//! Ten experiments take a `*Config` whose constructors are its [`Scale`]s:
//! `quick`, `paper` or `scaled`, and `full` for fig6/fig7; the census's are
//! `full`, `one_tenth` and `quick`, and [`rounds`] has none. A config field
//! is a value its constructors change (DESIGN.md §6), except nine that
//! `benchmark/src/seam.rs` reads through the four constructors it pins:
//! `RelayConfig::paper`, `SyncScenarioConfig::scaled`,
//! `AblationConfig::scaled` and `ForkStressConfig::quick`.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`sync_kde`] | Figure 1 + §IV-D synchronized-departure comparison |
//! | [`census`] | Figures 3, 4, 5, 8, 12, 13, Table I, ADDR mix |
//! | [`stability`] | Figure 6 |
//! | [`success_rate`] | Figure 7 |
//! | [`relay`] | Figures 10 and 11 |
//! | [`resync`] | §IV-D restart (11 min 14 s) |
//! | [`rounds`] | §IV-B propagation rounds (8⁵, 2¹⁴) |
//! | [`ablation`] | §V proposed refinements |
//! | [`partition`] | §IV-A1 routing-attack evaluation on the live topology |
//! | [`resilience`] | §IV root causes as a fault plane × Core countermeasures |
//! | [`forkstress`] | §IV sync degradation under chain-layer fork/reorg storms |
//!
//! [`fuzz`] is not a paper artifact: it is the deterministic scenario
//! fuzzer + world invariant checker backing `repro fuzz` (EXPERIMENTS.md
//! §"Fuzzing & invariants").

pub mod ablation;
mod bundle;
pub mod census;
pub mod forkstress;
pub mod fuzz;
pub mod partition;
pub mod registry;
pub mod relay;
pub mod resilience;
pub mod resync;
pub mod rounds;
pub mod runner;
pub mod stability;
pub mod success_rate;
pub mod sweep;
pub mod sync_kde;

pub use bundle::write_bundle;
pub use registry::{experiment_names, experiment_seed, Experiment, Scale, REGISTRY};
pub use runner::{ExperimentReport, ExperimentRunner, RunnerConfig};
