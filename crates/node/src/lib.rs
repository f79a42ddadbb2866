#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Walk order of an `IdMap` is reproducible, so output that came to depend on
// it would go unnoticed (see `bitsync_protocol::hash`).
#![warn(clippy::iter_over_hash_type)]

//! `bitsync-node` — the Bitcoin Core node behaviour model and the
//! event-driven world that hosts a population of them.
//!
//! - [`node`]: the per-node state machine — the `Node` record and its
//!   message dispatch, with one private submodule per mechanism: `dial`
//!   (attempt pick, backoff, discouragement, connect / disconnect),
//!   `handshake` (`VERSION` / `VERACK`, keepalive), `addr` (`GETADDR`,
//!   `ADDR` ingest and forwarding, misbehaviour), `pump` (the round-robin
//!   message pump of the paper's Figure 9 / Algorithm 3 and its visit
//!   order), `inventory` (`INV` / `GETDATA` / `TX`, flood and trickle) and
//!   `blocks` (blocks, headers, compact blocks, orphans, reorgs, mining).
//!   A node holds no instrument handle, so it is `Send`: what the world
//!   traces of it comes back in what `Node::pump` returns (one
//!   `AddrReceipt` per `ADDR` ingested) or is drained from it
//!   (`Node::take_reorgs`).
//! - [`peer`]: per-connection state (`vProcessMsg` / `vSendMessage`).
//! - [`config`]: Core-0.20 defaults plus the §V refinement knobs.
//! - [`malicious`]: the ADDR-flooding adversary of §IV-B / Figure 8.
//! - [`world`]: the substitute for the live network — config, the `World`
//!   struct and its one event loop, with one private submodule per
//!   mechanism: `population` (addresses, the per-node record, churn),
//!   `dial` (dial resolution against ground truth), `delivery` (pump →
//!   link → deliver, relay log, the traced ADDR split), `chain` (mining, tx
//!   injection, reorgs, convergence), `faults` (flaps, partitions, the
//!   resilience sweep) and `sampling` (metric names, sync fractions, the
//!   sampler row).
//!
//! # Examples
//!
//! A 20-node network that converges on a mined block:
//!
//! ```
//! use bitsync_node::world::{World, WorldConfig};
//! use bitsync_sim::time::{SimDuration, SimTime};
//!
//! let mut world = World::new(WorldConfig {
//!     seed: 7,
//!     n_reachable: 10,
//!     n_unreachable_full: 2,
//!     n_phantoms: 50,
//!     seed_reachable: 8,
//!     seed_phantoms: 5,
//!     block_interval: Some(SimDuration::from_secs(60)),
//!     ..WorldConfig::default()
//! });
//! world.run_until(SimTime::from_secs(600));
//! assert!(world.best_height() > 0);
//! ```

pub mod config;
pub mod malicious;
pub mod node;
pub mod peer;
pub mod world;

pub use config::{NodeConfig, TxAnnounce};
pub use malicious::{AddrFlooder, FloodScale};
pub use node::{
    unix_time, AddrReceipt, Node, NodeRequest, NodeStats, Outgoing, PumpBufs, MAX_ORPHAN_BLOCKS,
    SIM_EPOCH_UNIX,
};
pub use peer::{Direction, Handshake, NodeId, Peer};
pub use world::{ChurnEvent, Fault, World, WorldConfig};
