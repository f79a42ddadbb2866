#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `bitsync-core` — the root-cause-analysis toolkit for Bitcoin network
//! synchronization: a full reproduction of *"Root Cause Analyses for the
//! Deteriorating Bitcoin Network Synchronization"* (Saad, Chen, Mohaisen;
//! IEEE ICDCS 2021) on a from-scratch simulated Bitcoin network.
//!
//! The crate ties the substrates together and exposes one module per paper
//! artifact under [`experiments`]:
//!
//! - the wire protocol, chain, mempool and compact blocks
//!   ([`bitsync_protocol`], [`bitsync_chain`]);
//! - Bitcoin Core's address manager with the paper's §V refinement knobs
//!   ([`bitsync_addrman`]);
//! - the node behaviour model with the round-robin relay pump and the
//!   event-driven world ([`bitsync_node`]);
//! - the measurement apparatus — feeds, GETADDR crawls, VER probing, churn
//!   matrices ([`bitsync_crawler`]);
//! - the statistics layer ([`bitsync_analysis`]).
//!
//! # Quickstart
//!
//! ```
//! use bitsync_core::experiments::success_rate::{self, SuccessRateConfig};
//! use bitsync_core::sim::Instruments;
//!
//! let result = success_rate::run(&SuccessRateConfig::quick(42), &Instruments::default());
//! // The paper's §IV-B finding: most outgoing connection attempts fail.
//! assert!(result.mean_rate() < 0.5);
//! ```

pub mod experiments;
pub mod report;

pub use bitsync_addrman as addrman;
pub use bitsync_analysis as analysis;
pub use bitsync_chain as chain;
pub use bitsync_crawler as crawler;
pub use bitsync_net as net;
pub use bitsync_node as node;
pub use bitsync_protocol as protocol;
pub use bitsync_sim as sim;
