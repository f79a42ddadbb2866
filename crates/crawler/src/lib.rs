#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `bitsync-crawler` — the paper's measurement apparatus (Figure 2):
//!
//! - [`census`]: the 60-day ground-truth membership model the longitudinal
//!   experiments run against (see DESIGN.md §4 for why census experiments
//!   use membership rather than per-message simulation).
//! - [`feeds`]: the Bitnodes and DNS-seeder address feeds with the
//!   critical-infrastructure blacklist (Figure 3).
//! - [`crawl`]: Algorithm 1 (iterative `GETADDR` discovery) and
//!   Algorithm 2 (VER probing for responsive nodes).
//! - [`churn_matrix`]: Algorithm 4 (the binary membership matrix behind
//!   Figures 12 and 13 and the 16.6-day lifetime estimate).
//! - [`campaign`]: the full daily pipeline producing every longitudinal
//!   series in the paper.
//!
//! # Examples
//!
//! ```
//! use bitsync_crawler::campaign::Campaign;
//! use bitsync_crawler::census::{CensusConfig, CensusNetwork};
//! use bitsync_sim::rng::SimRng;
//! use bitsync_sim::Instruments;
//!
//! let mut rng = SimRng::seed_from(1);
//! let net = CensusNetwork::generate(CensusConfig::tiny(), &mut rng);
//! let result = Campaign::default().run(&net, &mut rng, &Instruments::default());
//! assert_eq!(result.days.len(), 10);
//! ```

pub mod campaign;
pub mod census;
pub mod churn_matrix;
pub mod crawl;
pub mod feeds;

pub use campaign::{Campaign, CampaignResult, DailyRecord};
pub use census::{CensusConfig, CensusNetwork, CensusNode, UnreachableAddr};
pub use churn_matrix::ChurnMatrix;
pub use crawl::{probe_responsive, CrawlResult, Crawler};
pub use feeds::{FeedSnapshot, Feeds};
