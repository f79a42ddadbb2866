//! Relay-delay study: reproduce the paper's Figures 10/11 setup — a node
//! with 8 outbound and 17 inbound connections — and compare Bitcoin Core's
//! round-robin relay against the paper's §V prioritized relay.
//!
//! ```sh
//! cargo run --release -p bitsync-core --example relay_delay_study
//! ```

use bitsync_core::experiments::relay::{run, RelayConfig};
use bitsync_core::node::NodeConfig;
use bitsync_core::sim::time::SimDuration;
use bitsync_core::sim::Instruments;

fn main() {
    let base = RelayConfig {
        duration: SimDuration::from_hours(2),
        ..RelayConfig::paper(11)
    };

    println!("measuring relay delay at a node with 8 outbound / 17 inbound peers");
    println!(
        "(2 simulated hours, ~{:.1} tx/s, one block per {}s)\n",
        base.tx_rate,
        base.block_interval.as_secs()
    );

    let result = run(&base, &Instruments::default());
    let blocks = result.block_summary().expect("blocks relayed");
    let txs = result.tx_summary().expect("txs relayed");
    println!("Bitcoin Core 0.20 round-robin relay:");
    println!(
        "  blocks: mean {:.2}s max {:.0}s over {} blocks (paper: 1.39s mean, 17s max)",
        blocks.mean, blocks.max, blocks.n
    );
    println!(
        "  txs:    mean {:.2}s max {:.0}s over {} txs   (paper: 0.45s mean, 8s max)",
        txs.mean, txs.max, txs.n
    );

    let proposal = RelayConfig {
        node_cfg: NodeConfig::paper_proposal(),
        ..base
    };
    let result = run(&proposal, &Instruments::default());
    let blocks_p = result.block_summary().expect("blocks relayed");
    println!("\nwith the paper's §V prioritized block relay:");
    println!(
        "  blocks: mean {:.2}s max {:.0}s (was mean {:.2}s max {:.0}s)",
        blocks_p.mean, blocks_p.max, blocks.mean, blocks.max
    );
    println!(
        "  improvement: {:.0}% lower mean block relay delay",
        100.0 * (1.0 - blocks_p.mean / blocks.mean.max(1e-9))
    );
}
