//! Tunable addrman parameters.
//!
//! Defaults mirror Bitcoin Core 0.20 (`addrman.h`). The fields marked
//! *§V refinement* expose the changes the paper proposes to improve network
//! synchronization; the ablation benchmarks toggle them. `addrman.h`
//! parameters that nothing varies are constants next to the code that
//! reads them ([`crate::MAX_RETRIES_NEW`], [`crate::GETADDR_MAX_PCT`], …).

/// The shape of the two bucket tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableSizes {
    /// Buckets in the `new` table.
    pub new_buckets: usize,
    /// Buckets in the `tried` table.
    pub tried_buckets: usize,
    /// Slots per bucket.
    pub bucket_size: usize,
}

/// Bitcoin Core's tables (`ADDRMAN_NEW_BUCKET_COUNT` 1024,
/// `ADDRMAN_TRIED_BUCKET_COUNT` 256, `ADDRMAN_BUCKET_SIZE` 64).
pub const CORE_TABLES: TableSizes = TableSizes {
    new_buckets: 1024,
    tried_buckets: 256,
    bucket_size: 64,
};

/// The fuzzer's tables: 256 `new` and 64 `tried` cells instead of Core's
/// ~82k, so a bounded run reaches the collision and eviction paths that
/// Core's tables never touch.
pub const SMALL_TABLES: TableSizes = TableSizes {
    new_buckets: 32,
    tried_buckets: 8,
    bucket_size: 8,
};

/// Parameters of the address manager.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AddrManConfig {
    /// Use [`SMALL_TABLES`] instead of [`CORE_TABLES`].
    pub small_tables: bool,
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
            small_tables: false,
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

    /// Core's policies on [`SMALL_TABLES`].
    pub fn small() -> Self {
        AddrManConfig {
            small_tables: true,
            ..Self::bitcoin_core()
        }
    }

    /// The table shape this config selects.
    pub fn tables(&self) -> TableSizes {
        if self.small_tables {
            SMALL_TABLES
        } else {
            CORE_TABLES
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_defaults_match_addrman_h() {
        let c = AddrManConfig::bitcoin_core();
        assert_eq!(
            c.tables(),
            TableSizes {
                new_buckets: 1024,
                tried_buckets: 256,
                bucket_size: 64,
            }
        );
        assert_eq!(
            AddrManConfig::small().tables(),
            TableSizes {
                new_buckets: 32,
                tried_buckets: 8,
                bucket_size: 8,
            }
        );
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
        assert_eq!(prop.small_tables, core.small_tables);
        assert_eq!(prop.tables(), core.tables());
    }
}
