//! Improvements ablation: evaluate the paper's §V Bitcoin Core
//! refinements — tried-only ADDR responses, the 17-day tried horizon, and
//! prioritized block relay — one at a time and together.
//!
//! ```sh
//! cargo run --release -p bitsync-core --example improvements_ablation
//! ```

use bitsync_core::experiments::ablation::{run_arm, AblationConfig, Arm};
use bitsync_core::sim::time::SimDuration;
use bitsync_core::sim::Instruments;

fn main() {
    let cfg = AblationConfig {
        duration: SimDuration::from_secs(8 * 3600),
        ..AblationConfig::quick(13)
    };
    println!("ablating the paper's proposed refinements under 2020-level churn\n");
    println!(
        "{:<26} {:>9} {:>10} {:>13} {:>7}",
        "arm", "success%", "outdegree", "blk-relay(s)", "sync%"
    );
    for arm in Arm::all() {
        let r = run_arm(&cfg, arm, &Instruments::default());
        println!(
            "{:<26} {:>8.1} {:>10.2} {:>13} {:>6.1}",
            arm.label(),
            r.connection_success_rate * 100.0,
            r.mean_outdegree,
            r.mean_block_relay_secs
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into()),
            r.mean_sync_fraction * 100.0
        );
    }
    println!("\npaper §V: tried-only ADDR raises connection success; the 17-day horizon");
    println!("evicts departed nodes faster; priority relay removes the 17s block tail.");
}
