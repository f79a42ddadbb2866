//! Tunable addrman parameters.
//!
//! Defaults mirror Bitcoin Core 0.20 (`addrman.h`). The fields marked
//! *§V refinement* expose the changes the paper proposes to improve network
//! synchronization; the ablation benchmarks toggle them. `addrman.h`
//! parameters that nothing varies are constants next to the code that
//! reads them ([`crate::MAX_RETRIES_NEW`], [`crate::GETADDR_MAX_PCT`], …).

/// Parameters of the address manager.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AddrManConfig {
    /// Number of buckets in the `new` table (Core: 1024).
    pub new_bucket_count: usize,
    /// Number of buckets in the `tried` table (Core: 256).
    pub tried_bucket_count: usize,
    /// Slots per bucket (Core: 64).
    pub bucket_size: usize,
    /// Days after which a known address counts as stale and is evicted
    /// (`ADDRMAN_HORIZON_DAYS`; Core: 30).
    ///
    /// *§V refinement*: the paper measures a mean node lifetime of 16.6 days
    /// and proposes reducing this to 17.
    pub horizon_days: i64,
    /// *§V refinement (a)*: serve `GETADDR` only from the `tried` table, so
    /// ADDR messages carry only addresses that were actually reachable.
    pub getaddr_from_tried_only: bool,
}

impl AddrManConfig {
    /// Bitcoin Core 0.20 defaults.
    pub fn bitcoin_core() -> Self {
        AddrManConfig {
            new_bucket_count: 1024,
            tried_bucket_count: 256,
            bucket_size: 64,
            horizon_days: 30,
            getaddr_from_tried_only: false,
        }
    }

    /// The paper's §V proposal: 17-day horizon and tried-only ADDR.
    pub fn paper_proposal() -> Self {
        AddrManConfig {
            horizon_days: 17,
            getaddr_from_tried_only: true,
            ..Self::bitcoin_core()
        }
    }

    /// A small table for unit tests (fewer buckets, same policies).
    pub fn small_for_tests() -> Self {
        AddrManConfig {
            new_bucket_count: 16,
            tried_bucket_count: 8,
            bucket_size: 8,
            ..Self::bitcoin_core()
        }
    }
}

impl Default for AddrManConfig {
    fn default() -> Self {
        Self::bitcoin_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_defaults_match_addrman_h() {
        let c = AddrManConfig::bitcoin_core();
        assert_eq!(c.new_bucket_count, 1024);
        assert_eq!(c.tried_bucket_count, 256);
        assert_eq!(c.bucket_size, 64);
        assert_eq!(c.horizon_days, 30);
        assert_eq!(crate::MAX_RETRIES_NEW, 3);
        assert_eq!(crate::MAX_FAILURES, 10);
        assert_eq!(crate::MAX_FAILURE_DAYS, 7);
        assert_eq!(crate::GETADDR_MAX_PCT, 23);
        assert_eq!(crate::GETADDR_MAX, 1000);
        assert!(!c.getaddr_from_tried_only);
    }

    #[test]
    fn paper_proposal_changes_only_the_two_knobs() {
        let core = AddrManConfig::bitcoin_core();
        let prop = AddrManConfig::paper_proposal();
        assert_eq!(prop.horizon_days, 17);
        assert!(prop.getaddr_from_tried_only);
        assert_eq!(prop.new_bucket_count, core.new_bucket_count);
        assert_eq!(prop.bucket_size, core.bucket_size);
    }
}
