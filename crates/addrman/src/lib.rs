#![warn(missing_docs)]
// Walk order of an `IdMap` is reproducible, so output that came to depend on
// it would go unnoticed (see `bitsync_protocol::hash`).
#![warn(clippy::iter_over_hash_type)]

//! `bitsync-addrman` — a faithful model of Bitcoin Core's address manager
//! (`addrman.cpp`), the component at the heart of the paper's addressing-
//! protocol findings (§IV-B).
//!
//! Structure follows Core 0.20:
//!
//! - a **`new` table** (1024 buckets × 64 slots) of addresses heard about in
//!   `ADDR` gossip but never successfully connected to;
//! - a **`tried` table** (256 buckets × 64 slots) of addresses with at least
//!   one successful connection;
//! - SipHash-keyed bucket placement so bucket positions are unpredictable;
//! - outgoing-connection candidates drawn from `new` or `tried` with equal
//!   probability;
//! - `IsTerrible` eviction (30-day horizon, retry limits);
//! - `GETADDR` responses sampling 23% of the table, capped at 1000.
//!
//! Because the protocol carries **no reachability bit**, unreachable
//! addresses dominate `new` in a network where they outnumber reachable
//! nodes 24:1 — which is precisely the failure mode the paper measures
//! (88.8% failed outgoing attempts). The [`config::AddrManConfig`] knobs
//! marked *§V refinement* implement the paper's proposed fixes.
//!
//! # Examples
//!
//! ```
//! use bitsync_addrman::{AddrMan, AddrManConfig};
//! use bitsync_protocol::addr::NetAddr;
//! use bitsync_sim::rng::SimRng;
//! use std::net::Ipv4Addr;
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut am = AddrMan::new(0x1234, AddrManConfig::bitcoin_core());
//! let peer = NetAddr::from_ipv4(Ipv4Addr::new(198, 51, 100, 1), 8333);
//! let source = NetAddr::from_ipv4(Ipv4Addr::new(203, 0, 113, 9), 8333);
//! am.add(peer, source, 1_000_000);
//! assert_eq!(am.len(), 1);
//! let candidate = am.select(&mut rng, 1_000_060);
//! assert_eq!(candidate, Some(peer));
//! ```

pub mod config;

pub use config::AddrManConfig;

use config::TableSizes;

use bitsync_crypto::SipHasher24;
use bitsync_protocol::addr::{NetAddr, TimestampedAddr};
use bitsync_protocol::hash::{table_bytes, IdMap};
use bitsync_sim::rng::SimRng;

const SECS_PER_DAY: i64 = 86_400;

/// Failed attempts tolerated for a never-successful address
/// (`ADDRMAN_RETRIES`: 3).
pub const MAX_RETRIES_NEW: u32 = 3;

/// Failed attempts tolerated within [`MAX_FAILURE_DAYS`] for a previously
/// successful address (`ADDRMAN_MAX_FAILURES`: 10).
pub const MAX_FAILURES: u32 = 10;

/// Window for [`MAX_FAILURES`] (`ADDRMAN_MIN_FAIL_DAYS`: 7).
pub const MAX_FAILURE_DAYS: i64 = 7;

/// Percentage of the eligible entries a `GETADDR` response samples
/// (`ADDRMAN_GETADDR_MAX_PCT`: 23).
pub const GETADDR_MAX_PCT: usize = 23;

/// Absolute cap on a `GETADDR` response (Core's `MAX_ADDR_TO_SEND`: 1000,
/// the `ADDR` message limit the paper describes in §III-A).
pub const GETADDR_MAX: usize = bitsync_protocol::message::MAX_ADDR_PER_MSG;

/// Vacant bucket-slot sentinel.
const EMPTY_SLOT: u32 = u32::MAX;

/// Which table an address currently lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Table {
    /// Heard about, never connected.
    New,
    /// Successfully connected at least once.
    Tried,
}

/// Book-keeping for one known address (Core's `CAddrInfo`).
#[derive(Clone, Debug)]
pub struct AddrInfo {
    /// The endpoint.
    pub addr: NetAddr,
    /// Where we heard about it.
    pub source: NetAddr,
    /// Advertised last-seen time (UNIX seconds).
    pub time: i64,
    /// Last connection attempt (0 = never).
    pub last_try: i64,
    /// Last successful connection (0 = never).
    pub last_success: i64,
    /// Failed attempts since the last success.
    pub attempts: u32,
    /// Which table the address is in.
    pub table: Table,
}

impl AddrInfo {
    /// Core's `IsTerrible`: whether this address should be evicted rather
    /// than gossiped or retried.
    pub fn is_terrible(&self, now: i64, cfg: &AddrManConfig) -> bool {
        if self.last_try != 0 && now - self.last_try < 60 {
            return false; // tried in the last minute: give it a grace period
        }
        if self.time > now + 600 {
            return true; // claimed last-seen from the future
        }
        if self.time == 0 || now - self.time > cfg.horizon_days * SECS_PER_DAY {
            return true; // not seen within the horizon
        }
        if self.last_success == 0 && self.attempts >= MAX_RETRIES_NEW {
            return true; // never connected despite retries
        }
        if now - self.last_success > MAX_FAILURE_DAYS * SECS_PER_DAY
            && self.attempts >= MAX_FAILURES
        {
            return true; // too many recent failures
        }
        false
    }
}

/// Bitcoin Core's address manager.
#[derive(Clone, Debug)]
pub struct AddrMan {
    cfg: AddrManConfig,
    /// `cfg.tables()`, resolved once.
    tables: TableSizes,
    /// SipHash key halves (Core's `nKey`).
    key: (u64, u64),
    /// All known address records (slab: indices are stable; `None` = free).
    infos: Vec<Option<AddrInfo>>,
    /// Free slab slots for reuse.
    free: Vec<usize>,
    /// Endpoint → record index.
    index: IdMap<NetAddr, usize>,
    /// `new` table, flattened `bucket × slot` → record index
    /// (`EMPTY_SLOT` = vacant).
    new_table: Vec<u32>,
    /// `tried` table, same layout.
    tried_table: Vec<u32>,
    /// Record indices currently in the `new` table (O(1) uniform draws).
    new_members: Vec<usize>,
    /// Record indices currently in the `tried` table.
    tried_members: Vec<usize>,
    /// Position of each record inside its member list.
    member_pos: Vec<usize>,
}

impl AddrMan {
    /// Creates an empty manager keyed by `key` (the per-node random `nKey`).
    pub fn new(key: u64, cfg: AddrManConfig) -> Self {
        let tables = cfg.tables();
        AddrMan {
            key: (key, key.rotate_left(32) ^ 0x5bd1e995),
            new_table: vec![EMPTY_SLOT; tables.bucket_size * tables.new_buckets],
            tried_table: vec![EMPTY_SLOT; tables.bucket_size * tables.tried_buckets],
            cfg,
            tables,
            infos: Vec::new(),
            free: Vec::new(),
            index: IdMap::default(),
            new_members: Vec::new(),
            tried_members: Vec::new(),
            member_pos: Vec::new(),
        }
    }

    fn info_at(&self, idx: usize) -> &AddrInfo {
        self.infos[idx].as_ref().expect("live record")
    }

    fn info_at_mut(&mut self, idx: usize) -> &mut AddrInfo {
        self.infos[idx].as_mut().expect("live record")
    }

    fn member_list(&mut self, table: Table) -> &mut Vec<usize> {
        match table {
            Table::New => &mut self.new_members,
            Table::Tried => &mut self.tried_members,
        }
    }

    fn member_add(&mut self, table: Table, idx: usize) {
        let list = self.member_list(table);
        list.push(idx);
        let pos = list.len() - 1;
        self.member_pos[idx] = pos;
    }

    #[inline]
    fn flat(&self, bucket: usize, slot: usize) -> usize {
        bucket * self.tables.bucket_size + slot
    }

    fn member_remove(&mut self, table: Table, idx: usize) {
        let pos = self.member_pos[idx];
        let list = self.member_list(table);
        debug_assert_eq!(list[pos], idx);
        list.swap_remove(pos);
        if pos < list.len() {
            let moved = list[pos];
            self.member_pos[moved] = pos;
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AddrManConfig {
        &self.cfg
    }

    /// Total known addresses.
    pub fn len(&self) -> usize {
        self.new_members.len() + self.tried_members.len()
    }

    /// Whether no addresses are known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Addresses in the `new` table.
    pub fn new_count(&self) -> usize {
        self.new_members.len()
    }

    /// Addresses in the `tried` table.
    pub fn tried_count(&self) -> usize {
        self.tried_members.len()
    }

    /// Bytes the manager allocates: the record slab and its free list, the
    /// endpoint index ([`table_bytes`]), both bucket tables and the member
    /// lists.
    pub fn footprint(&self) -> usize {
        let words = self.free.capacity()
            + self.new_members.capacity()
            + self.tried_members.capacity()
            + self.member_pos.capacity();
        self.infos.capacity() * size_of::<Option<AddrInfo>>()
            + table_bytes(self.index.capacity(), size_of::<(NetAddr, usize)>())
            + (self.new_table.capacity() + self.tried_table.capacity()) * size_of::<u32>()
            + words * size_of::<usize>()
    }

    /// Looks up the record for an endpoint.
    pub fn info(&self, addr: &NetAddr) -> Option<&AddrInfo> {
        self.index.get(addr).map(|&i| self.info_at(i))
    }

    fn new_bucket_of(&self, addr: &NetAddr, source: &NetAddr) -> usize {
        // Core: H(key, source_group, H(key, addr_group, source_group) % 64)
        let mut inner = SipHasher24::new(self.key.0, self.key.1);
        inner.write(&addr.group());
        inner.write(&source.group());
        let derived = inner.finish() % 64;
        let mut outer = SipHasher24::new(self.key.0, self.key.1);
        outer.write(&source.group());
        outer.write_u64(derived);
        (outer.finish() as usize) % self.tables.new_buckets
    }

    fn tried_bucket_of(&self, addr: &NetAddr) -> usize {
        let mut h = SipHasher24::new(self.key.0, self.key.1);
        h.write_u64(addr.key());
        h.write(&addr.group());
        (h.finish() as usize) % self.tables.tried_buckets
    }

    fn slot_of(&self, bucket: usize, addr: &NetAddr, tried: bool) -> usize {
        let mut h = SipHasher24::new(self.key.0, self.key.1);
        h.write_u8(tried as u8);
        h.write_u64(bucket as u64);
        h.write_u64(addr.key());
        (h.finish() as usize) % self.tables.bucket_size
    }

    /// Adds an address heard from `source` at time `now`, as on receipt of
    /// an `ADDR` entry. Returns `true` if it was new to the table.
    ///
    /// If the slot in the target `new` bucket is occupied, the incumbent is
    /// evicted when terrible (Core's behaviour), otherwise the newcomer is
    /// dropped — `new` is lossy by design.
    pub fn add(&mut self, addr: NetAddr, source: NetAddr, now: i64) -> bool {
        if let Some(&i) = self.index.get(&addr) {
            // Periodic time refresh, as Core does (penalty logic omitted).
            let info = self.info_at_mut(i);
            if now > info.time {
                info.time = now;
            }
            return false;
        }
        let bucket = self.new_bucket_of(&addr, &source);
        let slot = self.slot_of(bucket, &addr, false);
        let flat = self.flat(bucket, slot);
        let incumbent = self.new_table[flat];
        if incumbent != EMPTY_SLOT {
            let terrible = self.info_at(incumbent as usize).is_terrible(now, &self.cfg);
            if !terrible {
                return false; // keep the incumbent, drop the newcomer
            }
            self.remove_record(incumbent as usize);
        }
        let idx = self.insert_record(AddrInfo {
            addr,
            source,
            time: now,
            last_try: 0,
            last_success: 0,
            attempts: 0,
            table: Table::New,
        });
        self.new_table[flat] = idx as u32;
        self.member_add(Table::New, idx);
        true
    }

    /// Records a connection attempt to `addr` at `now` (Core's `Attempt`).
    pub fn attempt(&mut self, addr: &NetAddr, now: i64) {
        if let Some(&i) = self.index.get(addr) {
            let info = self.info_at_mut(i);
            info.last_try = now;
            info.attempts += 1;
        }
    }

    /// Records a successful connection (Core's `Good`): resets failure
    /// counters and promotes the address from `new` to `tried`.
    ///
    /// If the target `tried` slot is occupied, the incumbent is demoted back
    /// to `new` (Core pre-feeler behaviour), so `tried` never silently loses
    /// addresses.
    pub fn good(&mut self, addr: &NetAddr, now: i64) {
        let Some(&i) = self.index.get(addr) else {
            return;
        };
        {
            let info = self.info_at_mut(i);
            info.last_success = now;
            info.last_try = now;
            info.time = now;
            info.attempts = 0;
        }
        if self.info_at(i).table == Table::Tried {
            return;
        }
        // Remove from new table.
        self.unlink_from_new(i);
        self.member_remove(Table::New, i);
        // Insert into tried, evicting an incumbent back into new if needed.
        let bucket = self.tried_bucket_of(addr);
        let slot = self.slot_of(bucket, addr, true);
        let flat = self.flat(bucket, slot);
        let incumbent = self.tried_table[flat];
        if incumbent != EMPTY_SLOT {
            self.tried_table[flat] = EMPTY_SLOT;
            self.demote_to_new(incumbent as usize);
        }
        self.info_at_mut(i).table = Table::Tried;
        self.tried_table[flat] = i as u32;
        self.member_add(Table::Tried, i);
    }

    fn unlink_from_new(&mut self, idx: usize) {
        let addr = self.info_at(idx).addr;
        let source = self.info_at(idx).source;
        let bucket = self.new_bucket_of(&addr, &source);
        let slot = self.slot_of(bucket, &addr, false);
        let flat = self.flat(bucket, slot);
        if self.new_table[flat] == idx as u32 {
            self.new_table[flat] = EMPTY_SLOT;
        }
    }

    fn demote_to_new(&mut self, idx: usize) {
        self.member_remove(Table::Tried, idx);
        let addr = self.info_at(idx).addr;
        let source = self.info_at(idx).source;
        let bucket = self.new_bucket_of(&addr, &source);
        let slot = self.slot_of(bucket, &addr, false);
        let flat = self.flat(bucket, slot);
        if self.new_table[flat] == EMPTY_SLOT {
            self.info_at_mut(idx).table = Table::New;
            self.new_table[flat] = idx as u32;
            self.member_add(Table::New, idx);
        } else {
            // No room: the demoted address is forgotten entirely.
            self.index.remove(&addr);
            self.infos[idx] = None;
            self.free.push(idx);
        }
    }

    fn insert_record(&mut self, info: AddrInfo) -> usize {
        let addr = info.addr;
        let idx = match self.free.pop() {
            Some(i) => {
                self.infos[i] = Some(info);
                i
            }
            None => {
                self.infos.push(Some(info));
                self.member_pos.push(0);
                self.infos.len() - 1
            }
        };
        self.index.insert(addr, idx);
        idx
    }

    fn remove_record(&mut self, idx: usize) {
        let removed = self.infos[idx].take().expect("live record");
        match removed.table {
            Table::New => {
                // Restore the record briefly for unlink address lookups.
                self.infos[idx] = Some(removed);
                self.unlink_from_new(idx);
                let removed = self.infos[idx].take().expect("live record");
                self.member_remove(Table::New, idx);
                self.index.remove(&removed.addr);
            }
            Table::Tried => {
                let bucket = self.tried_bucket_of(&removed.addr);
                let slot = self.slot_of(bucket, &removed.addr, true);
                let flat = self.flat(bucket, slot);
                if self.tried_table[flat] == idx as u32 {
                    self.tried_table[flat] = EMPTY_SLOT;
                }
                self.member_remove(Table::Tried, idx);
                self.index.remove(&removed.addr);
            }
        }
        self.free.push(idx);
    }

    /// Selects a candidate for an outgoing connection (Core's `Select`):
    /// `new` or `tried` with equal probability, then a random occupied slot.
    ///
    /// Returns `None` only when the table is empty.
    pub fn select(&self, rng: &mut SimRng, _now: i64) -> Option<NetAddr> {
        if self.is_empty() {
            return None;
        }
        let use_tried = if self.tried_members.is_empty() {
            false
        } else if self.new_members.is_empty() {
            true
        } else {
            rng.chance(0.5)
        };
        // Uniform over the chosen table's entries. Core probes random
        // buckets/slots; over a sparse table that is equivalent to a
        // uniform entry draw, which the member lists give us in O(1).
        let list = if use_tried {
            &self.tried_members
        } else {
            &self.new_members
        };
        let idx = list[rng.index(list.len())];
        Some(self.info_at(idx).addr)
    }

    /// Builds a `GETADDR` response (Core's `GetAddr`): a random sample of
    /// [`GETADDR_MAX_PCT`]% of the table (capped at [`GETADDR_MAX`]), skipping
    /// terrible addresses. With the §V refinement enabled, only `tried`
    /// addresses are eligible.
    pub fn get_addr(&self, rng: &mut SimRng, now: i64) -> Vec<TimestampedAddr> {
        let eligible: Vec<&AddrInfo> = if self.cfg.getaddr_from_tried_only {
            self.tried_members
                .iter()
                .map(|&i| self.info_at(i))
                .collect()
        } else {
            self.infos.iter().flatten().collect()
        };
        let want = (eligible.len() * GETADDR_MAX_PCT / 100).min(GETADDR_MAX);
        let picks = if eligible.is_empty() {
            Vec::new()
        } else {
            rng.sample_indices(eligible.len(), want)
        };
        picks
            .into_iter()
            .map(|i| eligible[i])
            .filter(|info| !info.is_terrible(now, &self.cfg))
            .map(|info| TimestampedAddr::new(info.time.max(0) as u32, info.addr))
            .collect()
    }

    /// Evicts every terrible address (the lazy cleanup Core performs via
    /// slot collisions, made eager here so experiments can invoke it on a
    /// schedule). Returns how many were removed.
    pub fn evict_terrible(&mut self, now: i64) -> usize {
        let victims: Vec<NetAddr> = self
            .infos
            .iter()
            .flatten()
            .filter(|i| i.is_terrible(now, &self.cfg))
            .map(|i| i.addr)
            .collect();
        for v in &victims {
            if let Some(&idx) = self.index.get(v) {
                self.remove_record(idx);
            }
        }
        victims.len()
    }

    /// Iterates over all known records.
    pub fn iter(&self) -> impl Iterator<Item = &AddrInfo> {
        self.infos.iter().flatten()
    }

    /// Exhaustively cross-checks every internal structure against every
    /// other, panicking with a description of the first inconsistency.
    ///
    /// See [`AddrMan::try_check_invariants`] for the non-panicking variant
    /// and the list of verified invariants.
    pub fn check_invariants(&self) {
        if let Err(msg) = self.try_check_invariants() {
            panic!("addrman invariant violated: {msg}");
        }
    }

    /// Exhaustively cross-checks every internal structure against every
    /// other, returning a description of the first inconsistency instead of
    /// panicking (so fuzz harnesses can record it and keep running).
    ///
    /// Verified invariants:
    ///
    /// - the endpoint index, record slab, and member lists all agree on
    ///   which addresses exist (`len() == new + tried == live records`);
    /// - table sizes never exceed their bucket capacity
    ///   (`new ≤ new_buckets × slots`, `tried ≤ tried_buckets × slots`);
    /// - every live record occupies **exactly one** cell of the table its
    ///   `table` tag names and none of the other — in particular no
    ///   address sits in two `tried` slots;
    /// - `member_pos` round-trips through the member lists;
    /// - free-list entries are vacant.
    ///
    /// O(tables + records): meant for tests and fuzz harnesses, not for
    /// hot paths.
    pub fn try_check_invariants(&self) -> Result<(), String> {
        fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
            if cond {
                Ok(())
            } else {
                Err(msg())
            }
        }

        let live: Vec<usize> = (0..self.infos.len())
            .filter(|&i| self.infos[i].is_some())
            .collect();
        ensure(self.index.len() == live.len(), || {
            format!(
                "index size != live records ({} != {})",
                self.index.len(),
                live.len()
            )
        })?;
        ensure(self.len() == live.len(), || {
            format!(
                "member counts != live records ({} != {})",
                self.len(),
                live.len()
            )
        })?;
        // In slab order, not index order: the index has as many entries as
        // there are live records, so each record finding itself under its
        // own address makes the two a bijection.
        for &i in &live {
            let addr = self.info_at(i).addr;
            ensure(self.index.get(&addr) == Some(&i), || {
                format!(
                    "record {i} ({addr:?}) is indexed as {:?}",
                    self.index.get(&addr)
                )
            })?;
        }

        let new_cap = self.tables.new_buckets * self.tables.bucket_size;
        let tried_cap = self.tables.tried_buckets * self.tables.bucket_size;
        ensure(self.new_count() <= new_cap, || {
            format!("new overflow: {} > {new_cap}", self.new_count())
        })?;
        ensure(self.tried_count() <= tried_cap, || {
            format!("tried overflow: {} > {tried_cap}", self.tried_count())
        })?;

        let mut new_refs = vec![0u32; self.infos.len()];
        let mut tried_refs = vec![0u32; self.infos.len()];
        for (table, refs, cells) in [
            (Table::New, &mut new_refs, &self.new_table),
            (Table::Tried, &mut tried_refs, &self.tried_table),
        ] {
            for &cell in cells {
                if cell == EMPTY_SLOT {
                    continue;
                }
                let i = cell as usize;
                let info = self.infos[i]
                    .as_ref()
                    .ok_or_else(|| format!("{table:?} cell points at vacant slab slot {i}"))?;
                ensure(info.table == table, || {
                    format!("cell table {table:?} != record table {:?}", info.table)
                })?;
                refs[i] += 1;
            }
        }
        for &i in &live {
            let info = self.infos[i].as_ref().expect("live");
            let (own, other) = match info.table {
                Table::New => (new_refs[i], tried_refs[i]),
                Table::Tried => (tried_refs[i], new_refs[i]),
            };
            ensure(own == 1, || {
                format!("{:?} occupies {own} slots of its table", info.addr)
            })?;
            ensure(other == 0, || {
                format!("{:?} also sits in the other table", info.addr)
            })?;
        }

        for (table, list) in [
            (Table::New, &self.new_members),
            (Table::Tried, &self.tried_members),
        ] {
            for (pos, &i) in list.iter().enumerate() {
                ensure(self.member_pos[i] == pos, || {
                    format!(
                        "member_pos out of sync: slot {i} says {} not {pos}",
                        self.member_pos[i]
                    )
                })?;
                let info = self.infos[i]
                    .as_ref()
                    .ok_or_else(|| format!("member record {i} vacant"))?;
                ensure(info.table == table, || {
                    format!("{:?} in the wrong member list", info.addr)
                })?;
            }
        }

        for &i in &self.free {
            ensure(self.infos[i].is_none(), || {
                format!("free-list slot {i} is occupied")
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addr(a: u8, b: u8, c: u8, d: u8) -> NetAddr {
        NetAddr::from_ipv4(Ipv4Addr::new(a, b, c, d), 8333)
    }

    fn src() -> NetAddr {
        addr(203, 0, 113, 1)
    }

    const NOW: i64 = 1_600_000_000;

    fn filled(n: u16) -> AddrMan {
        let mut am = AddrMan::new(42, AddrManConfig::bitcoin_core());
        for i in 0..n {
            am.add(addr(10, (i >> 8) as u8, (i & 0xff) as u8, 1), src(), NOW);
        }
        am
    }

    #[test]
    fn add_and_dedup() {
        let mut am = AddrMan::new(1, AddrManConfig::bitcoin_core());
        assert!(am.add(addr(1, 2, 3, 4), src(), NOW));
        assert!(!am.add(addr(1, 2, 3, 4), src(), NOW + 100));
        assert_eq!(am.len(), 1);
        assert_eq!(am.new_count(), 1);
        assert_eq!(am.tried_count(), 0);
        // The duplicate add refreshed the timestamp.
        assert_eq!(am.info(&addr(1, 2, 3, 4)).unwrap().time, NOW + 100);
    }

    #[test]
    fn good_promotes_to_tried() {
        let mut am = AddrMan::new(1, AddrManConfig::bitcoin_core());
        let a = addr(1, 2, 3, 4);
        am.add(a, src(), NOW);
        am.attempt(&a, NOW + 10);
        am.good(&a, NOW + 20);
        let info = am.info(&a).unwrap();
        assert_eq!(info.table, Table::Tried);
        assert_eq!(info.attempts, 0);
        assert_eq!(info.last_success, NOW + 20);
        assert_eq!(am.tried_count(), 1);
        assert_eq!(am.new_count(), 0);
    }

    #[test]
    fn good_twice_is_idempotent_on_counts() {
        let mut am = AddrMan::new(1, AddrManConfig::bitcoin_core());
        let a = addr(1, 2, 3, 4);
        am.add(a, src(), NOW);
        am.good(&a, NOW);
        am.good(&a, NOW + 5);
        assert_eq!(am.tried_count(), 1);
        assert_eq!(am.len(), 1);
    }

    #[test]
    fn good_on_unknown_is_noop() {
        let mut am = AddrMan::new(1, AddrManConfig::bitcoin_core());
        am.good(&addr(1, 1, 1, 1), NOW);
        assert!(am.is_empty());
    }

    #[test]
    fn attempt_counts_failures() {
        let mut am = AddrMan::new(1, AddrManConfig::bitcoin_core());
        let a = addr(1, 2, 3, 4);
        am.add(a, src(), NOW);
        for k in 1..=3 {
            am.attempt(&a, NOW + k * 100);
        }
        assert_eq!(am.info(&a).unwrap().attempts, 3);
    }

    #[test]
    fn select_equal_probability_between_tables() {
        let mut am = AddrMan::new(7, AddrManConfig::bitcoin_core());
        let tried_addr = addr(1, 1, 1, 1);
        am.add(tried_addr, src(), NOW);
        am.good(&tried_addr, NOW);
        for i in 0..200u8 {
            am.add(addr(2, 2, i, 1), src(), NOW);
        }
        let mut rng = SimRng::seed_from(3);
        let mut tried_hits = 0;
        let n = 2000;
        for _ in 0..n {
            if am.select(&mut rng, NOW).unwrap() == tried_addr {
                tried_hits += 1;
            }
        }
        let frac = tried_hits as f64 / n as f64;
        // The single tried address should win ~50% despite being 1 of 201.
        assert!((frac - 0.5).abs() < 0.05, "tried fraction {frac}");
    }

    #[test]
    fn select_empty_is_none() {
        let am = AddrMan::new(1, AddrManConfig::bitcoin_core());
        let mut rng = SimRng::seed_from(1);
        assert_eq!(am.select(&mut rng, NOW), None);
    }

    #[test]
    fn select_single_table_fallback() {
        let mut am = AddrMan::new(1, AddrManConfig::bitcoin_core());
        let a = addr(5, 5, 5, 5);
        am.add(a, src(), NOW);
        am.good(&a, NOW); // only tried populated
        let mut rng = SimRng::seed_from(2);
        assert_eq!(am.select(&mut rng, NOW), Some(a));
    }

    #[test]
    fn getaddr_respects_23_pct_and_cap() {
        let am = filled(2000);
        let mut rng = SimRng::seed_from(4);
        let resp = am.get_addr(&mut rng, NOW);
        assert_eq!(resp.len(), am.len() * 23 / 100);

        let am_big = filled(10_000);
        let resp = am_big.get_addr(&mut rng, NOW);
        assert!(resp.len() <= 1000);
    }

    #[test]
    fn getaddr_tried_only_refinement() {
        let mut am = AddrMan::new(1, AddrManConfig::paper_proposal());
        for i in 0..40u8 {
            let a = addr(9, 9, i, 9);
            am.add(a, src(), NOW);
            am.good(&a, NOW);
        }
        for i in 0..200u8 {
            am.add(addr(8, 8, i, 1), src(), NOW);
        }
        let mut rng = SimRng::seed_from(5);
        let resp = am.get_addr(&mut rng, NOW);
        // 23 % of the tried entries, not of the 240-entry book.
        assert_eq!(resp.len(), am.tried_count() * GETADDR_MAX_PCT / 100);
        assert!(resp.len() >= 8, "{} tried", am.tried_count());
        for e in &resp {
            assert_eq!(am.info(&e.addr).unwrap().table, Table::Tried);
        }
    }

    #[test]
    fn terrible_stale_beyond_horizon() {
        let cfg = AddrManConfig::bitcoin_core();
        let info = AddrInfo {
            addr: addr(1, 1, 1, 1),
            source: src(),
            time: NOW - 31 * SECS_PER_DAY,
            last_try: 0,
            last_success: 0,
            attempts: 0,
            table: Table::New,
        };
        assert!(info.is_terrible(NOW, &cfg));
        // An 18-day-old record is terrible under the paper's 17-day horizon
        // but kept under Core's 30-day horizon.
        let cfg17 = AddrManConfig::paper_proposal();
        let info18 = AddrInfo {
            time: NOW - 18 * SECS_PER_DAY,
            ..info
        };
        assert!(info18.is_terrible(NOW, &cfg17));
        assert!(!info18.is_terrible(NOW, &cfg));
    }

    #[test]
    fn terrible_future_timestamp() {
        let cfg = AddrManConfig::bitcoin_core();
        let info = AddrInfo {
            addr: addr(1, 1, 1, 1),
            source: src(),
            time: NOW + 3600,
            last_try: 0,
            last_success: 0,
            attempts: 0,
            table: Table::New,
        };
        assert!(info.is_terrible(NOW, &cfg));
    }

    #[test]
    fn terrible_retries_without_success() {
        let cfg = AddrManConfig::bitcoin_core();
        let mut info = AddrInfo {
            addr: addr(1, 1, 1, 1),
            source: src(),
            time: NOW,
            last_try: NOW - 3600,
            last_success: 0,
            attempts: 2,
            table: Table::New,
        };
        assert!(!info.is_terrible(NOW, &cfg));
        info.attempts = 3;
        assert!(info.is_terrible(NOW, &cfg));
    }

    #[test]
    fn terrible_many_failures_after_success() {
        let cfg = AddrManConfig::bitcoin_core();
        let info = AddrInfo {
            addr: addr(1, 1, 1, 1),
            source: src(),
            time: NOW,
            last_try: NOW - 3600,
            last_success: NOW - 8 * SECS_PER_DAY,
            attempts: 10,
            table: Table::Tried,
        };
        assert!(info.is_terrible(NOW, &cfg));
        let recent_success = AddrInfo {
            last_success: NOW - 6 * SECS_PER_DAY,
            ..info
        };
        assert!(!recent_success.is_terrible(NOW, &cfg));
    }

    #[test]
    fn recent_try_grace_period() {
        let cfg = AddrManConfig::bitcoin_core();
        let info = AddrInfo {
            addr: addr(1, 1, 1, 1),
            source: src(),
            time: 0, // would be terrible
            last_try: NOW - 30,
            last_success: 0,
            attempts: 99,
            table: Table::New,
        };
        assert!(!info.is_terrible(NOW, &cfg));
    }

    #[test]
    fn evict_terrible_removes_stale() {
        let mut am = AddrMan::new(1, AddrManConfig::bitcoin_core());
        am.add(addr(1, 1, 1, 1), src(), NOW - 40 * SECS_PER_DAY);
        am.add(addr(2, 2, 2, 2), src(), NOW);
        let evicted = am.evict_terrible(NOW);
        assert_eq!(evicted, 1);
        assert_eq!(am.len(), 1);
        assert!(am.info(&addr(2, 2, 2, 2)).is_some());
        assert!(am.info(&addr(1, 1, 1, 1)).is_none());
    }

    #[test]
    fn getaddr_filters_terrible() {
        let cfg = AddrManConfig::bitcoin_core();
        let mut am = AddrMan::new(1, cfg);
        for i in 0..100u8 {
            // One /16 group each, so no two share a bucket.
            am.add(addr(1, i, 1, 1), src(), NOW);
            am.add(addr(2, i, 2, 2), src(), NOW - 40 * SECS_PER_DAY);
        }
        let mut rng = SimRng::seed_from(6);
        let resp = am.get_addr(&mut rng, NOW);
        // The 23 % sample is drawn first and the stale half of it dropped,
        // as in Core's `GetAddr_`.
        assert!(
            am.len() > 150,
            "bucket collisions ate the book: {}",
            am.len()
        );
        let sampled = am.len() * GETADDR_MAX_PCT / 100;
        assert!(!resp.is_empty() && resp.len() < sampled, "{}", resp.len());
        for e in &resp {
            assert!(!am.info(&e.addr).unwrap().is_terrible(NOW, &cfg));
        }
    }

    #[test]
    fn counts_stay_consistent_under_churny_workload() {
        let mut am = AddrMan::new(99, AddrManConfig::small());
        let mut rng = SimRng::seed_from(7);
        for round in 0..2000u32 {
            let a = addr(
                10,
                rng.below(8) as u8,
                rng.below(64) as u8,
                rng.below(4) as u8 + 1,
            );
            match rng.below(4) {
                0 => {
                    am.add(a, src(), NOW + round as i64);
                }
                1 => am.attempt(&a, NOW + round as i64),
                2 => am.good(&a, NOW + round as i64),
                _ => {
                    am.evict_terrible(NOW + round as i64);
                }
            }
            assert_eq!(am.len(), am.new_count() + am.tried_count());
            assert_eq!(am.len(), am.iter().count());
        }
    }

    #[test]
    fn tried_collision_keeps_counts_consistent() {
        // Force tried-slot collisions in a tiny table.
        let mut am = AddrMan::new(3, AddrManConfig::small());
        for i in 0..64u8 {
            let a = addr(20, i, 1, 1);
            am.add(a, src(), NOW);
            am.good(&a, NOW);
        }
        assert_eq!(am.len(), am.new_count() + am.tried_count());
        assert!(am.tried_count() <= 8 * 8);
        assert!(am.tried_count() > 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn addr_of(v: u32) -> NetAddr {
        let o = v.to_be_bytes();
        NetAddr::from_ipv4(Ipv4Addr::new(10 | (o[0] & 0x7f), o[1], o[2], o[3]), 8333)
    }

    proptest! {
        /// Under arbitrary add/attempt/good/evict sequences the table
        /// counts, index, and bucket occupancy stay mutually consistent.
        #[test]
        fn table_invariants(ops in proptest::collection::vec((0u8..4, any::<u16>()), 1..300)) {
            let mut am = AddrMan::new(5, AddrManConfig::small());
            let src = addr_of(0xffff_0001);
            let now = 1_600_000_000i64;
            for (i, (op, v)) in ops.into_iter().enumerate() {
                let a = addr_of(v as u32);
                let t = now + i as i64;
                match op {
                    0 => { am.add(a, src, t); }
                    1 => am.attempt(&a, t),
                    2 => am.good(&a, t),
                    _ => { am.evict_terrible(t); }
                }
                prop_assert_eq!(am.len(), am.new_count() + am.tried_count());
                for info in am.iter() {
                    prop_assert!(am.info(&info.addr).is_some());
                }
                let mut rng = SimRng::seed_from(i as u64);
                if !am.is_empty() {
                    let sel = am.select(&mut rng, t).unwrap();
                    prop_assert!(am.info(&sel).is_some());
                }
            }
        }

        /// GETADDR never exceeds the cap or the percentage bound and never
        /// returns unknown addresses.
        #[test]
        fn getaddr_bounds(n in 0u16..600, seed in any::<u64>()) {
            let mut am = AddrMan::new(9, AddrManConfig::bitcoin_core());
            let src = addr_of(0xffff_0002);
            for i in 0..n {
                am.add(addr_of(i as u32), src, 1_600_000_000);
            }
            let mut rng = SimRng::seed_from(seed);
            let resp = am.get_addr(&mut rng, 1_600_000_000);
            prop_assert!(resp.len() <= 1000);
            prop_assert!(resp.len() <= am.len() * GETADDR_MAX_PCT / 100);
            for e in &resp {
                prop_assert!(am.info(&e.addr).is_some());
            }
        }
    }
}
