//! Churn study: compare a 2019-like and a 2020-like network — identical in
//! everything except churn — and watch synchronization deteriorate, the
//! paper's central claim.
//!
//! ```sh
//! cargo run --release -p bitsync-core --example churn_study
//! ```

use bitsync_core::analysis::Kde;
use bitsync_core::experiments::sync_kde::{run_year, SyncScenarioConfig, Year};
use bitsync_core::sim::time::SimDuration;
use bitsync_core::sim::Instruments;

fn main() {
    let cfg = SyncScenarioConfig {
        n_reachable: 80,
        duration: SimDuration::from_secs(24 * 3600),
        warmup: SimDuration::from_secs(4 * 3600),
        ..SyncScenarioConfig::scaled(5)
    };
    println!(
        "running two {}-node scenarios for 24 simulated hours each;",
        cfg.n_reachable
    );
    println!("the ONLY difference is the churn model (2019 vs doubled 2020 churn)\n");

    for year in [Year::Y2019, Year::Y2020] {
        let result = run_year(&cfg, year, &Instruments::default());
        println!(
            "{:?}: mean sync {:.1}% | median {:.1}% | min {:.1}% | {} departures ({:.2} synchronized per 10 min)",
            year,
            result.summary.mean * 100.0,
            result.summary.median * 100.0,
            result.summary.min * 100.0,
            result.total_departures,
            result.sync_departures_per_10min
        );
        if let Some(kde) = Kde::fit(&result.sync_samples) {
            print!("  density: ");
            for (x, d) in kde.grid(0.4, 1.0, 13) {
                print!("{:.0}%:{:>4.1} ", x * 100.0, d);
            }
            println!();
        }
    }
    println!("\npaper: mean sync fell 72.02% → 61.91% as synchronized-node churn doubled (3.9 → 7.6 per 10 min)");
}
