#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Walk order of an `IdMap` is reproducible, so output that came to depend on
// it would go unnoticed (see `bitsync_protocol::hash`).
#![warn(clippy::iter_over_hash_type)]

//! `bitsync-net` — the simulated network substrate:
//!
//! - [`population`]: the ground-truth node classes (reachable / responsive /
//!   silent).
//! - [`as_model`]: Autonomous-System assignment calibrated to the paper's
//!   Table I.
//! - [`latency`]: deterministic pairwise AS-level delays, bandwidth, and
//!   connect timeouts.
//! - [`churn`]: session lifetimes and rejoin behaviour (§IV-D).
//!
//! # Examples
//!
//! ```
//! use bitsync_net::{AsModel, LatencyConfig, LatencyModel, NodeClass};
//! use bitsync_sim::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from(1);
//! let ases = AsModel::from_paper();
//! let a = ases.sample(NodeClass::Reachable, &mut rng);
//! let b = ases.sample(NodeClass::UnreachableSilent, &mut rng);
//! let latency = LatencyModel::new(LatencyConfig::internet_2020(), 1);
//! assert_eq!(latency.base_delay(a, b), latency.base_delay(b, a));
//! ```

pub mod as_model;
pub mod churn;
pub mod latency;
pub mod population;

pub use as_model::AsModel;
pub use churn::{ChurnConfig, Rejoin};
pub use latency::{LatencyConfig, LatencyModel};
pub use population::NodeClass;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Latency is always positive, symmetric, and within the clamp.
        #[test]
        fn latency_invariants(a in 0u32..100_000, b in 0u32..100_000, seed in any::<u64>()) {
            let m = LatencyModel::new(LatencyConfig::internet_2020(), seed);
            let d = m.base_delay(a, b);
            prop_assert_eq!(d, m.base_delay(b, a));
            let ms = d.as_secs_f64() * 1000.0;
            prop_assert!(ms > 0.0 && ms <= 2000.0);
        }
    }
}
