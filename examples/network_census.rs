//! Network census: run the paper's 60-day measurement campaign (Figure 2
//! pipeline) at reduced scale and print the discovery series.
//!
//! This walks the same path as §III/§IV-A: pull the Bitnodes and DNS
//! feeds, remove blacklisted addresses, crawl every reachable node with
//! iterative GETADDR (Algorithm 1), probe discovered unreachable addresses
//! with VER (Algorithm 2), and detect ADDR flooders.
//!
//! ```sh
//! cargo run --release -p bitsync-core --example network_census
//! ```

use bitsync_core::crawler::campaign::Campaign;
use bitsync_core::crawler::census::{CensusConfig, CensusNetwork};
use bitsync_core::crawler::churn_matrix::ChurnMatrix;
use bitsync_core::sim::rng::SimRng;
use bitsync_core::sim::Instruments;

fn main() {
    let mut rng = SimRng::seed_from(7);
    let cfg = CensusConfig {
        days: 30,
        reachable_online: 400,
        unreachable_live: 8_000,
        unreachable_daily_new: 350,
        book_mean: 400,
        n_malicious: 4,
        ..CensusConfig::paper_scale()
    };
    println!(
        "generating ground truth: {} reachable online, {} live unreachable, {} days...",
        cfg.reachable_online, cfg.unreachable_live, cfg.days
    );
    let net = CensusNetwork::generate(cfg, &mut rng);
    println!(
        "  materialized {} unique reachable nodes, {} unreachable addresses\n",
        net.reachable.len(),
        net.unreachable.len()
    );

    let campaign = Campaign {
        probe_start_day: 7,
        ..Campaign::default()
    };
    println!("running the daily crawl campaign...");
    let result = campaign.run(&net, &mut rng, &Instruments::default());

    println!("\nday | connected | unreachable today / cumulative | responsive today / cumulative");
    for r in result.days.iter().step_by(3) {
        println!(
            "{:>3} | {:>9} | {:>10} / {:>10} | {:>9} / {:>9}",
            r.day,
            r.connected,
            r.unreachable_today,
            r.unreachable_cumulative,
            r.responsive_today,
            r.responsive_cumulative
        );
    }

    println!(
        "\nADDR composition: {:.1}% reachable (paper: 14.9%)",
        result.reachable_addr_fraction() * 100.0
    );

    let malicious = result.detect_malicious(1000);
    println!(
        "flooders detected by the no-reachable-address heuristic: {}",
        malicious.len()
    );
    for (addr, total) in malicious.iter().take(5) {
        println!("  {addr} sent {total} unreachable addresses");
    }

    let matrix = ChurnMatrix::build(&net, 1.0);
    println!(
        "\nchurn: {:.1}% of the snapshot departs daily; mean node lifetime {:.1} days; {} always-on nodes",
        matrix.daily_departure_fraction() * 100.0,
        matrix.mean_lifetime_days(),
        matrix.always_present()
    );
}
