//! DESIGN.md §6 "What can differ between two worlds" lists every settable
//! field of the three config structs, one table row each. The struct
//! literals below have no `..`, so adding or removing a field stops this
//! file compiling until the list — and then the table — follows.

use bitsync_addrman::AddrManConfig;
use bitsync_node::config::{NodeConfig, ResilienceConfig, TxAnnounce};

/// Builds `$ty` from every one of its fields and names them `Type::field`.
macro_rules! axes {
    ($ty:ident { $($field:ident: $value:expr),+ $(,)? }) => {{
        let _ = $ty { $($field: $value),+ };
        [$(concat!(stringify!($ty), "::", stringify!($field))),+]
    }};
}

#[test]
fn design_table_has_one_row_per_config_field() {
    let mut fields = Vec::new();
    fields.extend(axes!(NodeConfig {
        upload_bandwidth: 2_000_000.0,
        addrman: AddrManConfig::bitcoin_core(),
        priority_relay: false,
        compact_blocks: true,
        tx_announce: TxAnnounce::Flood,
        resilience: ResilienceConfig::off(),
    }));
    fields.extend(axes!(AddrManConfig {
        small_tables: false,
        horizon_days: 30,
        getaddr_from_tried_only: false,
    }));
    fields.extend(axes!(ResilienceConfig {
        countermeasures: false,
        ban_on_reorg: false,
    }));
    assert_eq!(fields.len(), 11);

    let design = include_str!("../../../DESIGN.md");
    let section = design
        .split_once("### What can differ between two worlds")
        .expect("DESIGN.md lost the section")
        .1;
    let section = section.split_once("\n## ").map_or(section, |(s, _)| s);
    // First cells of the form `Type::field`.
    let rows: Vec<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split_once("` |"))
        .map(|(cell, _)| cell)
        .filter(|cell| cell.contains("::"))
        .collect();
    assert_eq!(rows, fields, "DESIGN.md §6 rows vs the config structs");
}
