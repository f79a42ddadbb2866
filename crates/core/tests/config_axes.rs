//! An experiment config holds what its scales change (DESIGN.md §6 "What
//! can differ between two worlds"). Each of the ten configs is built from
//! every one of its constructors and destructured without `..`, so adding
//! a field stops this file compiling until the field is listed here. A
//! field with the same `Debug` value from every constructor fails: it
//! belongs in a private `const` beside its reader, unless
//! `benchmark/src/seam.rs` reads it ([`SEAM`]).

use bitsync_core::experiments::ablation::AblationConfig;
use bitsync_core::experiments::census::CensusExperimentConfig;
use bitsync_core::experiments::forkstress::ForkStressConfig;
use bitsync_core::experiments::partition::PartitionConfig;
use bitsync_core::experiments::relay::RelayConfig;
use bitsync_core::experiments::resilience::ResilienceConfig;
use bitsync_core::experiments::resync::ResyncConfig;
use bitsync_core::experiments::stability::StabilityConfig;
use bitsync_core::experiments::success_rate::SuccessRateConfig;
use bitsync_core::experiments::sync_kde::SyncScenarioConfig;

/// The single-valued fields the benchmark seam reads through the
/// constructors it pins. They stay fields until the seam stops reading
/// them; one that starts to vary leaves this list.
const SEAM: [&str; 9] = [
    "SyncScenarioConfig::ibd_fresh_mean",
    "SyncScenarioConfig::laggard_fraction",
    "RelayConfig::n_outbound",
    "RelayConfig::n_inbound",
    "RelayConfig::upload_bandwidth",
    "RelayConfig::compact_fraction",
    "RelayConfig::node_cfg",
    "AblationConfig::churn",
    "ForkStressConfig::base_fault",
];

/// One config type as its constructors build it.
struct Config {
    name: &'static str,
    /// The source of the module that defines it.
    source: &'static str,
    constructors: Vec<&'static str>,
    /// Each field other than `seed`, with its `Debug` value from each
    /// constructor in turn.
    fields: Vec<(&'static str, Vec<String>)>,
}

/// Builds `$ty` from each listed constructor of module `$module` and reads
/// back every field but `seed`.
macro_rules! config {
    ($module:ident::$ty:ident [$($ctor:ident),+] { $($field:ident),+ $(,)? }) => {{
        let debug = |cfg: $ty| {
            let $ty { seed: _, $($field),+ } = cfg;
            [$(format!("{:?}", $field)),+]
        };
        let built = [$(debug($ty::$ctor(7))),+];
        let names = [$(stringify!($field)),+];
        Config {
            name: stringify!($ty),
            source: include_str!(concat!("../src/experiments/", stringify!($module), ".rs")),
            constructors: vec![$(stringify!($ctor)),+],
            fields: names
                .iter()
                .enumerate()
                .map(|(i, name)| (*name, built.iter().map(|values| values[i].clone()).collect()))
                .collect(),
        }
    }};
}

fn configs() -> Vec<Config> {
    vec![
        config!(sync_kde::SyncScenarioConfig [scaled, quick] {
            n_reachable, n_unreachable_full, duration, block_interval,
            ibd_fresh_mean, laggard_fraction, churn_speedup, warmup,
        }),
        config!(census::CensusExperimentConfig [full, one_tenth, quick] { census, campaign }),
        config!(stability::StabilityConfig [paper, full, quick] {
            warmup, n_reachable, n_phantoms, seed_phantoms,
        }),
        config!(success_rate::SuccessRateConfig [paper, full, quick] {
            runs, n_reachable, n_phantoms, seed_phantoms,
        }),
        config!(relay::RelayConfig [paper, quick] {
            n_outbound, n_inbound, duration, block_interval, tx_rate,
            upload_bandwidth, compact_fraction, node_cfg,
        }),
        config!(resync::ResyncConfig [paper, quick] {
            n_reachable, warmup, n_phantoms, seed_phantoms,
        }),
        config!(ablation::AblationConfig [scaled, quick] {
            n_reachable, duration, churn, churn_speedup, warmup,
        }),
        config!(partition::PartitionConfig [scaled, quick] {
            n_reachable, attack, heal, block_interval,
        }),
        config!(resilience::ResilienceConfig [scaled, quick] {
            n_reachable, n_malicious, n_unreachable_full, n_phantoms,
            intensities, churn_speedup, warmup, duration,
        }),
        config!(forkstress::ForkStressConfig [scaled, quick] {
            n_reachable, n_unreachable_full, n_phantoms, base_fault,
            intensities, warmup, duration, convergence_grace,
        }),
    ]
}

/// The names a markdown cell or a source line quotes in backticks.
fn quoted(text: &str) -> Vec<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

fn sorted(mut names: Vec<&str>) -> Vec<&str> {
    names.sort_unstable();
    names
}

/// The constructors a module defines: `pub fn NAME(seed: u64) -> Self`.
fn constructors_in(source: &str) -> Vec<&str> {
    source
        .lines()
        .filter_map(|line| line.trim().strip_prefix("pub fn "))
        .filter_map(|rest| rest.strip_suffix("(seed: u64) -> Self {"))
        .collect()
}

/// The module-level private constants a module defines.
fn constants_in(source: &str) -> Vec<&str> {
    source
        .lines()
        .filter_map(|line| line.strip_prefix("const ")?.split_once(':'))
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn every_experiment_config_field_is_an_axis_its_scales_change() {
    let mut single_valued = Vec::new();
    let mut settable = 0;
    for config in configs() {
        assert_eq!(
            config.constructors,
            constructors_in(config.source),
            "{}: build it from every constructor",
            config.name
        );
        for (field, values) in &config.fields {
            settable += 1;
            if values.iter().all(|v| *v == values[0]) {
                single_valued.push(format!("{}::{field}", config.name));
            }
        }
    }
    assert_eq!(
        single_valued, SEAM,
        "single-valued fields outside the seam list become constants; seam fields that vary leave it"
    );
    assert_eq!(settable, 55, "settable fields besides `seed`");
}

#[test]
fn design_table_has_one_row_per_experiment_config() {
    let design = include_str!("../../../DESIGN.md");
    let section = design
        .split_once("### What can differ between two worlds")
        .expect("DESIGN.md lost the section")
        .1;
    let section = section.split_once("\n## ").map_or(section, |(s, _)| s);
    // Rows whose first cell is a bare `*Config` type name.
    let rows: Vec<Vec<&str>> = section
        .lines()
        .map(|line| line.split(" | ").collect::<Vec<_>>())
        .filter(|cells| {
            cells[0]
                .strip_prefix("| `")
                .is_some_and(|c| c.ends_with("Config`") && !c.contains("::"))
        })
        .collect();
    let configs = configs();
    assert_eq!(rows.len(), configs.len(), "one DESIGN.md row per config");
    for (row, config) in rows.iter().zip(&configs) {
        assert_eq!(quoted(row[0]), [config.name]);
        assert_eq!(quoted(row[1]), config.constructors, "{}", config.name);
        let (seam, varied): (Vec<&str>, Vec<&str>) = config
            .fields
            .iter()
            .map(|(field, _)| *field)
            .partition(|field| SEAM.contains(&format!("{}::{field}", config.name).as_str()));
        // The constants cell also quotes values; the names are upper case.
        let constants = quoted(row[4])
            .into_iter()
            .filter(|name| name.bytes().all(|b| b.is_ascii_uppercase() || b == b'_'))
            .collect();
        for (listed, defined, what) in [
            (quoted(row[2]), varied, "fields"),
            (quoted(row[3]), seam, "seam fields"),
            (constants, constants_in(config.source), "constants"),
        ] {
            assert_eq!(sorted(listed), sorted(defined), "{} {what}", config.name);
        }
    }
}
