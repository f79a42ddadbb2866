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
//!   one successful connection — both stored sparsely, as maps from a flat
//!   slot to the record filed there, so a manager costs what it holds
//!   ([`FOOTPRINT_PER_RECORD`]) rather than the 81 920 slots it could hold;
//! - each address stored once, in its record: the endpoint → record index
//!   is an open-addressing table of 4-byte record numbers, compared against
//!   the records themselves;
//! - of the peer it heard an address from, a record keeps only the 4-byte
//!   group that `new`-bucket placement reads, its times are `u32` seconds
//!   (an `ADDR` entry's width) and its endpoint is unpadded, so a record
//!   is 48 B;
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
use bitsync_protocol::hash::{table_bytes, IdHasher, IdMap};
use bitsync_sim::rng::SimRng;
use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::net::Ipv6Addr;

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

/// Most bytes [`AddrMan::footprint`] charges per known address: its record,
/// its 4-byte index cell, its table slot and its member-list words, with
/// the slack of tables that grow by doubling. Nothing is charged per bucket,
/// so the tests hold managers of every size to this bound.
pub const FOOTPRINT_PER_RECORD: usize = 144;

/// Which table an address currently lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Table {
    /// Heard about, never connected.
    New,
    /// Successfully connected at least once.
    Tried,
}

/// Book-keeping for one known address (Core's `CAddrInfo`): 48 B, as is
/// the slab's `Option<AddrInfo>` ([`Table`] leaves a niche). The endpoint
/// is stored as its three fields ([`AddrInfo::addr`] rebuilds it), so no
/// padding follows the port, and the times are `u32` UNIX seconds, the
/// width an `ADDR` entry carries ([`TimestampedAddr::time`]).
#[derive(Clone, Debug)]
pub struct AddrInfo {
    services: u64,
    ip: Ipv6Addr,
    port: u16,
    /// The group ([`NetAddr::group`]) of the peer we heard about it from:
    /// all that `new`-bucket placement reads of the source, as in Core's
    /// `CAddrInfo::GetNewBucket`.
    pub source_group: [u8; 4],
    /// Advertised last-seen time (UNIX seconds).
    pub time: u32,
    /// Last connection attempt (0 = never).
    pub last_try: u32,
    /// Last successful connection (0 = never).
    pub last_success: u32,
    /// Failed attempts since the last success.
    pub attempts: u32,
    /// Which table the address is in.
    pub table: Table,
}

/// A clock reading (`now`, UNIX seconds) as a record stores it, saturated
/// to `0..=u32::MAX`. Exact in every world: a world's clock starts at
/// 2020-04-04 (1 585 958 400) and `u32` seconds last until 2106.
fn stamp(now: i64) -> u32 {
    now.clamp(0, i64::from(u32::MAX)) as u32
}

impl AddrInfo {
    /// A fresh `new`-table record of `addr`, heard from a peer in
    /// `source_group` at `now`.
    fn fresh(addr: NetAddr, source_group: [u8; 4], now: i64) -> Self {
        AddrInfo {
            services: addr.services,
            ip: addr.ip,
            port: addr.port,
            source_group,
            time: stamp(now),
            last_try: 0,
            last_success: 0,
            attempts: 0,
            table: Table::New,
        }
    }

    /// The endpoint.
    pub fn addr(&self) -> NetAddr {
        NetAddr {
            services: self.services,
            ip: self.ip,
            port: self.port,
        }
    }

    /// Whether this is `addr`'s record (`self.addr() == *addr`), compared
    /// field by field: an index probe builds no `NetAddr`.
    fn is_at(&self, addr: &NetAddr) -> bool {
        self.ip == addr.ip && self.port == addr.port && self.services == addr.services
    }

    /// Core's `IsTerrible`: whether this address should be evicted rather
    /// than gossiped or retried. The times are widened before any
    /// subtraction, so a stamp later than `now` cannot wrap.
    pub fn is_terrible(&self, now: i64, cfg: &AddrManConfig) -> bool {
        let (time, last_try, last_success) = (
            i64::from(self.time),
            i64::from(self.last_try),
            i64::from(self.last_success),
        );
        if last_try != 0 && now - last_try < 60 {
            return false; // tried in the last minute: give it a grace period
        }
        if time > now + 600 {
            return true; // claimed last-seen from the future
        }
        if time == 0 || now - time > cfg.horizon_days * SECS_PER_DAY {
            return true; // not seen within the horizon
        }
        if last_success == 0 && self.attempts >= MAX_RETRIES_NEW {
            return true; // never connected despite retries
        }
        if now - last_success > MAX_FAILURE_DAYS * SECS_PER_DAY && self.attempts >= MAX_FAILURES {
            return true; // too many recent failures
        }
        false
    }
}

/// The record a cell of the [`EndpointIndex`] names.
fn indexed(infos: &[Option<AddrInfo>], idx: u32) -> &AddrInfo {
    infos[idx as usize]
        .as_ref()
        .expect("indexed record is live")
}

/// Endpoint → record number, without a second copy of the endpoint: an
/// open-addressing table of slab indices whose keys are the records'
/// own endpoints.
///
/// The cell count is a power of two and at most 7/8 of the cells are
/// occupied, so every probe chain ends at a [`EndpointIndex::VACANT`] cell.
/// A lookup hashes the endpoint with [`IdHasher`], probes linearly from
/// its home cell and compares each record's endpoint. A removal shifts the
/// rest of its chain back over the hole instead of leaving a tombstone,
/// and so reads the moved records' addresses from the slab: a record
/// leaves the index before it leaves the slab. Nothing walks the cells,
/// so their order never reaches output. A record number fits a cell: the
/// slab never holds more records than the two tables have slots.
#[derive(Clone, Debug, Default)]
struct EndpointIndex {
    cells: Vec<u32>,
    /// Occupied cells.
    len: usize,
}

impl EndpointIndex {
    /// Marks a vacant cell.
    const VACANT: u32 = u32::MAX;

    /// Cells of the first allocation: enough for a world's DNS seeding
    /// (`WorldConfig`'s default 32 reachable + 200 phantom addresses) to
    /// fit without a growth step.
    const MIN_CELLS: usize = 512;

    fn mask(&self) -> usize {
        self.cells.len() - 1
    }

    fn home(&self, addr: &NetAddr) -> usize {
        BuildHasherDefault::<IdHasher>::default().hash_one(addr) as usize & self.mask()
    }

    /// The cell naming `addr`'s record, or else the vacant cell that ends
    /// its chain. The table must have cells.
    fn probe(&self, addr: &NetAddr, infos: &[Option<AddrInfo>]) -> Result<usize, usize> {
        let mut cell = self.home(addr);
        loop {
            match self.cells[cell] {
                Self::VACANT => return Err(cell),
                idx if indexed(infos, idx).is_at(addr) => return Ok(cell),
                _ => cell = (cell + 1) & self.mask(),
            }
        }
    }

    fn get(&self, addr: &NetAddr, infos: &[Option<AddrInfo>]) -> Option<usize> {
        if self.cells.is_empty() {
            return None;
        }
        let cell = self.probe(addr, infos).ok()?;
        Some(self.cells[cell] as usize)
    }

    /// Files record `idx`, whose endpoint is not indexed yet.
    fn insert(&mut self, idx: usize, infos: &[Option<AddrInfo>]) {
        if (self.len + 1) * 8 > self.cells.len() * 7 {
            self.grow(infos);
        }
        let cell = self
            .probe(&indexed(infos, idx as u32).addr(), infos)
            .expect_err("endpoint indexed twice");
        self.cells[cell] = idx as u32;
        self.len += 1;
    }

    /// Doubles the cells and refiles every record (their endpoints are
    /// distinct, so each goes to the first vacant cell of its chain).
    fn grow(&mut self, infos: &[Option<AddrInfo>]) {
        let cells = (self.cells.len() * 2).max(Self::MIN_CELLS);
        let old = std::mem::replace(&mut self.cells, vec![Self::VACANT; cells]);
        for idx in old.into_iter().filter(|&idx| idx != Self::VACANT) {
            let mut cell = self.home(&indexed(infos, idx).addr());
            while self.cells[cell] != Self::VACANT {
                cell = (cell + 1) & self.mask();
            }
            self.cells[cell] = idx;
        }
    }

    /// Unfiles `addr`, whose record must still be in the slab, by backward
    /// shift: each later member of the chain whose home cell does not lie
    /// between the hole and itself moves into the hole, which moves on.
    fn remove(&mut self, addr: &NetAddr, infos: &[Option<AddrInfo>]) {
        if self.cells.is_empty() {
            return;
        }
        let Ok(mut hole) = self.probe(addr, infos) else {
            return;
        };
        let mask = self.mask();
        let mut cell = hole;
        loop {
            cell = (cell + 1) & mask;
            let idx = self.cells[cell];
            if idx == Self::VACANT {
                break;
            }
            let home = self.home(&indexed(infos, idx).addr());
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.cells[hole] = idx;
                hole = cell;
            }
        }
        self.cells[hole] = Self::VACANT;
        self.len -= 1;
    }

    /// Bytes of the cells.
    fn footprint(&self) -> usize {
        self.cells.capacity() * size_of::<u32>()
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
    free: Vec<u32>,
    /// Endpoint → record index.
    index: EndpointIndex,
    /// `new` table: flat slot (`bucket × bucket_size + slot`) → record
    /// index. An absent slot is vacant, so the table costs what it holds.
    new_table: IdMap<u32, u32>,
    /// `tried` table, same layout.
    tried_table: IdMap<u32, u32>,
    /// Record indices currently in the `new` table (O(1) uniform draws).
    new_members: Vec<u32>,
    /// Record indices currently in the `tried` table.
    tried_members: Vec<u32>,
    /// Position of each record inside its member list.
    member_pos: Vec<u32>,
}

impl AddrMan {
    /// Creates an empty manager keyed by `key` (the per-node random `nKey`).
    pub fn new(key: u64, cfg: AddrManConfig) -> Self {
        AddrMan {
            key: (key, key.rotate_left(32) ^ 0x5bd1e995),
            new_table: IdMap::default(),
            tried_table: IdMap::default(),
            tables: cfg.tables(),
            cfg,
            infos: Vec::new(),
            free: Vec::new(),
            index: EndpointIndex::default(),
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

    fn member_list(&mut self, table: Table) -> &mut Vec<u32> {
        match table {
            Table::New => &mut self.new_members,
            Table::Tried => &mut self.tried_members,
        }
    }

    fn member_add(&mut self, table: Table, idx: usize) {
        let list = self.member_list(table);
        list.push(idx as u32);
        let pos = list.len() - 1;
        self.member_pos[idx] = pos as u32;
    }

    fn member_remove(&mut self, table: Table, idx: usize) {
        let pos = self.member_pos[idx] as usize;
        let list = self.member_list(table);
        debug_assert_eq!(list[pos], idx as u32);
        list.swap_remove(pos);
        if pos < list.len() {
            let moved = list[pos];
            self.member_pos[moved as usize] = pos as u32;
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
    /// endpoint index's 4-byte cells, both bucket tables ([`table_bytes`])
    /// and the member lists.
    pub fn footprint(&self) -> usize {
        let words = self.free.capacity()
            + self.new_members.capacity()
            + self.tried_members.capacity()
            + self.member_pos.capacity();
        let slots =
            |table: &IdMap<u32, u32>| table_bytes(table.capacity(), size_of::<(u32, u32)>());
        self.infos.capacity() * size_of::<Option<AddrInfo>>()
            + self.index.footprint()
            + slots(&self.new_table)
            + slots(&self.tried_table)
            + words * size_of::<u32>()
    }

    /// The slab index of an endpoint's record.
    fn find(&self, addr: &NetAddr) -> Option<usize> {
        self.index.get(addr, &self.infos)
    }

    /// Looks up the record for an endpoint.
    pub fn info(&self, addr: &NetAddr) -> Option<&AddrInfo> {
        self.find(addr).map(|i| self.info_at(i))
    }

    fn new_bucket_of(&self, addr: &NetAddr, source_group: &[u8; 4]) -> usize {
        // Core: H(key, source_group, H(key, addr_group, source_group) % 64)
        let mut inner = SipHasher24::new(self.key.0, self.key.1);
        inner.write(&addr.group());
        inner.write(source_group);
        let derived = inner.finish() % 64;
        let mut outer = SipHasher24::new(self.key.0, self.key.1);
        outer.write(source_group);
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

    /// Flat `new`-table slot (`bucket × bucket_size + slot`) of `addr`
    /// heard from a peer in `source_group`.
    fn new_slot(&self, addr: &NetAddr, source_group: &[u8; 4]) -> u32 {
        let bucket = self.new_bucket_of(addr, source_group);
        (bucket * self.tables.bucket_size + self.slot_of(bucket, addr, false)) as u32
    }

    /// Flat `tried`-table slot of `addr`.
    fn tried_slot(&self, addr: &NetAddr) -> u32 {
        let bucket = self.tried_bucket_of(addr);
        (bucket * self.tables.bucket_size + self.slot_of(bucket, addr, true)) as u32
    }

    /// The slot a record's own key hashes to in the table its tag names.
    fn home_slot(&self, info: &AddrInfo) -> u32 {
        match info.table {
            Table::New => self.new_slot(&info.addr(), &info.source_group),
            Table::Tried => self.tried_slot(&info.addr()),
        }
    }

    /// Adds an address heard from `source` at time `now`, as on receipt of
    /// an `ADDR` entry. Returns `true` if it was new to the table.
    ///
    /// If the slot in the target `new` bucket is occupied, the incumbent is
    /// evicted when terrible (Core's behaviour), otherwise the newcomer is
    /// dropped — `new` is lossy by design.
    pub fn add(&mut self, addr: NetAddr, source: NetAddr, now: i64) -> bool {
        if let Some(i) = self.find(&addr) {
            // Periodic time refresh, as Core does (penalty logic omitted).
            let (info, now) = (self.info_at_mut(i), stamp(now));
            if now > info.time {
                info.time = now;
            }
            return false;
        }
        let source_group = source.group();
        let flat = self.new_slot(&addr, &source_group);
        if let Some(&incumbent) = self.new_table.get(&flat) {
            let terrible = self.info_at(incumbent as usize).is_terrible(now, &self.cfg);
            if !terrible {
                return false; // keep the incumbent, drop the newcomer
            }
            self.remove_record(incumbent as usize);
        }
        let idx = self.insert_record(AddrInfo::fresh(addr, source_group, now));
        self.new_table.insert(flat, idx as u32);
        self.member_add(Table::New, idx);
        true
    }

    /// Records a connection attempt to `addr` at `now` (Core's `Attempt`).
    pub fn attempt(&mut self, addr: &NetAddr, now: i64) {
        if let Some(i) = self.find(addr) {
            let info = self.info_at_mut(i);
            info.last_try = stamp(now);
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
        let Some(i) = self.find(addr) else {
            return;
        };
        {
            let (info, now) = (self.info_at_mut(i), stamp(now));
            info.last_success = now;
            info.last_try = now;
            info.time = now;
            info.attempts = 0;
        }
        if self.info_at(i).table == Table::Tried {
            return;
        }
        // Remove from new table.
        self.unlink(i);
        self.member_remove(Table::New, i);
        // Insert into tried, evicting an incumbent back into new if needed.
        let flat = self.tried_slot(addr);
        if let Some(incumbent) = self.tried_table.remove(&flat) {
            self.demote_to_new(incumbent as usize);
        }
        self.info_at_mut(i).table = Table::Tried;
        self.tried_table.insert(flat, i as u32);
        self.member_add(Table::Tried, i);
    }

    /// Vacates record `idx`'s slot in the table its tag names.
    fn unlink(&mut self, idx: usize) {
        let info = self.info_at(idx);
        let (table, flat) = (info.table, self.home_slot(info));
        let cells = match table {
            Table::New => &mut self.new_table,
            Table::Tried => &mut self.tried_table,
        };
        if let Entry::Occupied(cell) = cells.entry(flat) {
            if *cell.get() == idx as u32 {
                cell.remove();
            }
        }
    }

    fn demote_to_new(&mut self, idx: usize) {
        self.member_remove(Table::Tried, idx);
        let info = self.info_at(idx);
        let (addr, source_group) = (info.addr(), info.source_group);
        let flat = self.new_slot(&addr, &source_group);
        if !self.new_table.contains_key(&flat) {
            self.info_at_mut(idx).table = Table::New;
            self.new_table.insert(flat, idx as u32);
            self.member_add(Table::New, idx);
        } else {
            // No room: the demoted address is forgotten entirely.
            self.index.remove(&addr, &self.infos);
            self.infos[idx] = None;
            self.free.push(idx as u32);
        }
    }

    fn insert_record(&mut self, info: AddrInfo) -> usize {
        let idx = match self.free.pop() {
            Some(i) => {
                self.infos[i as usize] = Some(info);
                i as usize
            }
            None => {
                self.infos.push(Some(info));
                self.member_pos.push(0);
                self.infos.len() - 1
            }
        };
        self.index.insert(idx, &self.infos);
        idx
    }

    fn remove_record(&mut self, idx: usize) {
        self.unlink(idx);
        // The index reads the record's endpoint, so it goes first.
        let info = self.info_at(idx);
        let (addr, table) = (info.addr(), info.table);
        self.index.remove(&addr, &self.infos);
        self.infos[idx] = None;
        self.member_remove(table, idx);
        self.free.push(idx as u32);
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
        Some(self.info_at(idx as usize).addr())
    }

    /// Builds a `GETADDR` response (Core's `GetAddr`): a random sample of
    /// [`GETADDR_MAX_PCT`]% of the table (capped at [`GETADDR_MAX`]), skipping
    /// terrible addresses. With the §V refinement enabled, only `tried`
    /// addresses are eligible.
    pub fn get_addr(&self, rng: &mut SimRng, now: i64) -> Vec<TimestampedAddr> {
        let eligible: Vec<&AddrInfo> = if self.cfg.getaddr_from_tried_only {
            self.tried_members
                .iter()
                .map(|&i| self.info_at(i as usize))
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
            .map(|info| TimestampedAddr::new(info.time, info.addr()))
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
            .map(AddrInfo::addr)
            .collect();
        for v in &victims {
            if let Some(idx) = self.find(v) {
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
    ///   which addresses exist (`len() == new + tried == live records`):
    ///   the index's occupied cells number its length and the live
    ///   records, each names a live record, and each record is found under
    ///   its own address;
    /// - the index has a power-of-two cell count and is at most 7/8 full;
    /// - table sizes never exceed their bucket capacity
    ///   (`new ≤ new_buckets × slots`, `tried ≤ tried_buckets × slots`);
    /// - every live record is filed in the table its `table` tag names at
    ///   the slot its own key hashes to (`new`: its `(addr, source_group)`
    ///   bucket; `tried`: its `addr` bucket);
    /// - each table holds exactly as many slots as its member list has
    ///   entries — with the previous point, every live record occupies
    ///   **exactly one** cell of its own table and none of the other, so in
    ///   particular no address sits in two `tried` slots;
    /// - `member_pos` round-trips through the member lists;
    /// - free-list entries are vacant.
    ///
    /// O(records + index cells): it walks the index's cells once, looks each
    /// record up and hashes it once, and walks no bucket table. Meant for
    /// tests and fuzz harnesses, not for hot paths.
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
        let cells = &self.index.cells;
        ensure(cells.is_empty() || cells.len().is_power_of_two(), || {
            format!("index has {} cells", cells.len())
        })?;
        let mut occupied = 0;
        for &i in cells.iter().filter(|&&i| i != EndpointIndex::VACANT) {
            occupied += 1;
            ensure(
                self.infos.get(i as usize).is_some_and(Option::is_some),
                || format!("index cell names record {i}, which is not live"),
            )?;
        }
        ensure(occupied == self.index.len, || {
            format!(
                "index has {occupied} occupied cells, counts {}",
                self.index.len
            )
        })?;
        ensure(occupied * 8 <= cells.len() * 7, || {
            format!("index {occupied} / {} cells full", cells.len())
        })?;
        ensure(occupied == live.len(), || {
            format!("index size != live records ({occupied} != {})", live.len())
        })?;
        ensure(self.len() == live.len(), || {
            format!(
                "member counts != live records ({} != {})",
                self.len(),
                live.len()
            )
        })?;
        // The index has as many entries as there are live records, so each
        // record finding itself under its own address makes the two a
        // bijection.
        for &i in &live {
            let addr = self.info_at(i).addr();
            ensure(self.find(&addr) == Some(i), || {
                format!("record {i} ({addr:?}) is indexed as {:?}", self.find(&addr))
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

        // Every record sits at the slot its own key hashes to, and the
        // tables hold nothing else: each member fills a distinct slot, so
        // equal sizes leave no cell for a stray or second entry.
        for &i in &live {
            let info = self.info_at(i);
            let flat = self.home_slot(info);
            let cells = match info.table {
                Table::New => &self.new_table,
                Table::Tried => &self.tried_table,
            };
            ensure(cells.get(&flat) == Some(&(i as u32)), || {
                format!(
                    "{:?} (record {i}) is not at its {:?} slot {flat}, which holds {:?}",
                    info.addr(),
                    info.table,
                    cells.get(&flat)
                )
            })?;
        }
        for (table, cells, members) in [
            (Table::New, &self.new_table, self.new_count()),
            (Table::Tried, &self.tried_table, self.tried_count()),
        ] {
            ensure(cells.len() == members, || {
                format!(
                    "{table:?} table holds {} slots for {members} members",
                    cells.len()
                )
            })?;
        }

        for (table, list) in [
            (Table::New, &self.new_members),
            (Table::Tried, &self.tried_members),
        ] {
            for (pos, &i) in list.iter().enumerate() {
                let i = i as usize;
                ensure(self.member_pos[i] as usize == pos, || {
                    format!(
                        "member_pos out of sync: slot {i} says {} not {pos}",
                        self.member_pos[i]
                    )
                })?;
                let info = self.infos[i]
                    .as_ref()
                    .ok_or_else(|| format!("member record {i} vacant"))?;
                ensure(info.table == table, || {
                    format!("{:?} in the wrong member list", info.addr())
                })?;
            }
        }

        for &i in &self.free {
            ensure(self.infos[i as usize].is_none(), || {
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

    /// A record of `addr(1, 1, 1, 1)` with the given times (UNIX seconds)
    /// and failed attempts.
    fn record(time: i64, last_try: i64, last_success: i64, attempts: u32) -> AddrInfo {
        AddrInfo {
            last_try: stamp(last_try),
            last_success: stamp(last_success),
            attempts,
            ..AddrInfo::fresh(addr(1, 1, 1, 1), src().group(), time)
        }
    }

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
        assert_eq!(
            i64::from(am.info(&addr(1, 2, 3, 4)).unwrap().time),
            NOW + 100
        );
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
        assert_eq!(i64::from(info.last_success), NOW + 20);
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
        let info = record(NOW - 31 * SECS_PER_DAY, 0, 0, 0);
        assert!(info.is_terrible(NOW, &cfg));
        // An 18-day-old record is terrible under the paper's 17-day horizon
        // but kept under Core's 30-day horizon.
        let cfg17 = AddrManConfig::paper_proposal();
        let info18 = record(NOW - 18 * SECS_PER_DAY, 0, 0, 0);
        assert!(info18.is_terrible(NOW, &cfg17));
        assert!(!info18.is_terrible(NOW, &cfg));
    }

    #[test]
    fn terrible_future_timestamp() {
        let cfg = AddrManConfig::bitcoin_core();
        let info = record(NOW + 3600, 0, 0, 0);
        assert!(info.is_terrible(NOW, &cfg));
    }

    #[test]
    fn terrible_retries_without_success() {
        let cfg = AddrManConfig::bitcoin_core();
        let mut info = record(NOW, NOW - 3600, 0, 2);
        assert!(!info.is_terrible(NOW, &cfg));
        info.attempts = 3;
        assert!(info.is_terrible(NOW, &cfg));
    }

    #[test]
    fn terrible_many_failures_after_success() {
        let cfg = AddrManConfig::bitcoin_core();
        let info = record(NOW, NOW - 3600, NOW - 8 * SECS_PER_DAY, 10);
        assert!(info.is_terrible(NOW, &cfg));
        let recent_success = record(NOW, NOW - 3600, NOW - 6 * SECS_PER_DAY, 10);
        assert!(!recent_success.is_terrible(NOW, &cfg));
    }

    #[test]
    fn recent_try_grace_period() {
        let cfg = AddrManConfig::bitcoin_core();
        let info = record(0, NOW - 30, 0, 99); // time 0 would be terrible
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
    fn footprint_grows_with_records_not_with_buckets() {
        let mut am = AddrMan::new(42, AddrManConfig::bitcoin_core());
        assert!(am.footprint() < 1024, "empty: {} B", am.footprint());
        for i in 0..1000u32 {
            // One /16 group each, heard from 256 source groups.
            let [_, _, hi, lo] = i.to_be_bytes();
            am.add(addr(10 + hi, lo, 1, 1), addr(200, lo, hi, 1), NOW);
        }
        assert!(am.len() > 900, "collisions ate the book: {}", am.len());
        assert!(
            am.footprint() <= FOOTPRINT_PER_RECORD * am.len(),
            "{} B for {} records",
            am.footprint(),
            am.len()
        );
    }

    #[test]
    fn invariant_check_names_a_record_filed_under_a_wrong_slot() {
        let mut am = filled(50);
        am.check_invariants();
        let i = am.new_members[0] as usize;
        let info = am.info_at(i).clone();
        let home = am.home_slot(&info);
        let stray = (0..).find(|s| !am.new_table.contains_key(s)).unwrap();
        // Same record count and table size: only the slot is wrong.
        am.new_table.remove(&home);
        am.new_table.insert(stray, i as u32);
        let msg = am.try_check_invariants().unwrap_err();
        assert!(msg.contains(&format!("{:?}", info.addr())), "{msg}");
        assert!(msg.contains(&format!("New slot {home}")), "{msg}");

        // Filed twice: at home and at the stray slot.
        am.new_table.insert(home, i as u32);
        let members = am.new_count();
        let msg = am.try_check_invariants().unwrap_err();
        assert_eq!(
            msg,
            format!(
                "New table holds {} slots for {members} members",
                members + 1
            )
        );
    }

    /// A probe chain that runs off the last cell continues at cell 0, and a
    /// backward-shift removal from its head must carry that wrap with it.
    #[test]
    fn index_removal_shifts_a_chain_back_across_the_wrap() {
        let record = |a: NetAddr| Some(AddrInfo::fresh(a, src().group(), NOW));
        let cells = EndpointIndex::MIN_CELLS;
        let first = EndpointIndex {
            cells: vec![EndpointIndex::VACANT; cells],
            len: 0,
        };
        let home = |a: &NetAddr| first.home(a);
        let candidates = (0..=u16::MAX).map(|i| {
            let [hi, lo] = i.to_be_bytes();
            addr(10, 7, hi, lo)
        });
        let at_last: Vec<NetAddr> = candidates
            .clone()
            .filter(|a| home(a) == cells - 1)
            .take(3)
            .collect();
        let at_first = candidates.clone().find(|a| home(a) == 0).unwrap();
        // Filed in this order: last cell, then 0, 1 and 2 by the wrap.
        let chain = [at_last[0], at_last[1], at_first, at_last[2]];
        let mut infos: Vec<Option<AddrInfo>> = chain.iter().map(|&a| record(a)).collect();
        let mut index = EndpointIndex::default();
        for i in 0..chain.len() {
            index.insert(i, &infos);
        }
        assert_eq!(index.cells.len(), cells);
        assert_eq!(index.cells[cells - 1], 0);
        assert_eq!(index.cells[..3], [1, 2, 3]);

        index.remove(&chain[0], &infos);
        infos[0] = None;
        assert_eq!(index.get(&chain[0], &infos), None);
        for (i, a) in chain.iter().enumerate().skip(1) {
            assert_eq!(index.get(a, &infos), Some(i), "{a:?}");
        }
        // Every survivor moved back one cell, onto or across the wrap.
        assert_eq!(index.cells[cells - 1], 1);
        assert_eq!(index.cells[..3], [2, 3, EndpointIndex::VACANT]);

        // Across a growth step: the index fills to 7/8 of its cells, and
        // the next record doubles them.
        let full = cells * 7 / 8;
        let extra: Vec<NetAddr> = candidates
            .filter(|a| !chain.contains(a))
            .take(full - 3 + 1)
            .collect();
        for (n, &a) in extra.iter().enumerate() {
            infos.push(record(a));
            index.insert(infos.len() - 1, &infos);
            let grown = n == extra.len() - 1;
            assert_eq!(index.cells.len(), if grown { 2 * cells } else { cells });
        }
        assert_eq!(index.len, full + 1);
        assert_eq!(index.get(&chain[0], &infos), None);
        for (i, a) in chain.iter().chain(&extra).enumerate().skip(1) {
            assert_eq!(index.get(a, &infos), Some(i), "{a:?}");
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

    /// Records are most of a mesh world's address books (DESIGN §6 "Where
    /// the memory goes — the benchmark worlds (record width)"): a new
    /// field, a time widened back to `i64`, an endpoint stored as a padded
    /// `NetAddr` or a [`Table`] that loses its niche would bring bytes back
    /// to every one of them.
    #[test]
    fn a_record_is_48_bytes() {
        assert_eq!(size_of::<AddrInfo>(), 48);
        assert_eq!(size_of::<Option<AddrInfo>>(), 48);
    }

    #[test]
    fn stamp_saturates_outside_u32() {
        assert_eq!(stamp(i64::MIN), 0);
        assert_eq!(stamp(-1), 0);
        assert_eq!(stamp(0), 0);
        assert_eq!(stamp(1_585_958_400), 1_585_958_400);
        assert_eq!(stamp(i64::from(u32::MAX)), u32::MAX);
        assert_eq!(stamp(i64::from(u32::MAX) + 1), u32::MAX);
        assert_eq!(stamp(i64::MAX), u32::MAX);
    }

    /// A record keeps only its source's group, so a record demoted from
    /// `tried` must land back in the `new` slot it was first filed at from
    /// its full source.
    #[test]
    fn a_demoted_record_returns_to_the_slot_its_full_source_gave_it() {
        let mut am = AddrMan::new(11, AddrManConfig::small());
        let mut first_slot = Vec::new();
        for i in 0..300u32 {
            let [_, _, hi, lo] = i.to_be_bytes();
            let a = addr(10 + hi, lo, 7, 1);
            let source = addr(200, (i % 37) as u8, (i / 37) as u8, 9);
            if am.add(a, source, NOW) {
                let idx = am.find(&a).unwrap();
                let slot = am.new_slot(&a, &source.group());
                assert_eq!(am.new_table.get(&slot), Some(&(idx as u32)));
                first_slot.push((a, slot));
            }
        }
        assert!(first_slot.len() > 100, "{} filed", first_slot.len());
        for (a, _) in &first_slot {
            am.good(a, NOW + 60);
        }
        am.check_invariants();
        let mut demoted = 0;
        for (a, slot) in &first_slot {
            let Some(info) = am.info(a) else { continue };
            if info.table == Table::New {
                demoted += 1;
                let idx = am.find(a).unwrap() as u32;
                assert_eq!(am.new_table.get(slot), Some(&idx), "{a:?}");
            }
        }
        // 64 tried slots for over 100 promotions: collisions demote.
        assert!(demoted > 0);

        // Two sources in one /16 file an address alike.
        let (s1, s2) = (addr(198, 51, 1, 1), addr(198, 51, 200, 7));
        let a = addr(10, 9, 9, 9);
        let mut by_s1 = AddrMan::new(11, AddrManConfig::small());
        let mut by_s2 = AddrMan::new(11, AddrManConfig::small());
        by_s1.add(a, s1, NOW);
        by_s2.add(a, s2, NOW);
        let (r1, r2) = (by_s1.info(&a).unwrap(), by_s2.info(&a).unwrap());
        assert_eq!(r1.source_group, s1.group());
        assert_eq!(r1.source_group, r2.source_group);
        assert_eq!(by_s1.home_slot(r1), by_s2.home_slot(r2));
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

    /// An offset from `now` for one of a record's times: far enough back
    /// to give 0 (the stamp saturates), more than 30 days back, within
    /// the grace minute and the failure week, or in the future.
    fn near() -> impl Strategy<Value = i64> {
        const DAY: u64 = SECS_PER_DAY as u64;
        prop_oneof![
            Just(i64::MIN / 2),
            (29 * DAY..40 * DAY).prop_map(|back| -(back as i64)),
            (0..8 * DAY + 1200).prop_map(|s| s as i64 - 8 * SECS_PER_DAY),
            (0u64..240).prop_map(|s| s as i64 - 120),
            any::<u32>().prop_map(i64::from),
        ]
    }

    /// Core's `IsTerrible` on `i64` times, as records held them before
    /// they were narrowed to `u32`.
    fn is_terrible_i64(
        [time, last_try, last_success]: [i64; 3],
        attempts: u32,
        now: i64,
        cfg: &AddrManConfig,
    ) -> bool {
        if last_try != 0 && now - last_try < 60 {
            return false;
        }
        if time > now + 600 {
            return true;
        }
        if time == 0 || now - time > cfg.horizon_days * SECS_PER_DAY {
            return true;
        }
        if last_success == 0 && attempts >= MAX_RETRIES_NEW {
            return true;
        }
        if now - last_success > MAX_FAILURE_DAYS * SECS_PER_DAY && attempts >= MAX_FAILURES {
            return true;
        }
        false
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
                    prop_assert!(am.info(&info.addr()).is_some());
                }
                let mut rng = SimRng::seed_from(i as u64);
                if !am.is_empty() {
                    let sel = am.select(&mut rng, t).unwrap();
                    prop_assert!(am.info(&sel).is_some());
                }
            }
        }

        /// The endpoint index alone, filled past its first growth step and
        /// emptied again: it finds exactly what the slab holds, so a chain
        /// a removal broke or a record filed twice fails.
        #[test]
        fn endpoint_index_finds_what_the_slab_holds(
            ops in proptest::collection::vec((any::<bool>(), 0u32..1024), 1..1500),
        ) {
            let mut infos: Vec<Option<AddrInfo>> = Vec::new();
            let mut index = EndpointIndex::default();
            let mut free = Vec::new();
            for (insert, v) in ops {
                let a = addr_of(v);
                let held = infos.iter().position(|r| r.as_ref().is_some_and(|r| r.addr() == a));
                match (insert, held) {
                    (true, None) => {
                        let info = AddrInfo::fresh(a, a.group(), 0);
                        let idx = free.pop().unwrap_or(infos.len());
                        if idx == infos.len() {
                            infos.push(None);
                        }
                        infos[idx] = Some(info);
                        index.insert(idx, &infos);
                    }
                    (false, Some(idx)) => {
                        index.remove(&a, &infos);
                        infos[idx] = None;
                        free.push(idx);
                    }
                    _ => {}
                }
                prop_assert_eq!(index.get(&a, &infos).is_some(), insert);
            }
            prop_assert_eq!(index.len, infos.iter().flatten().count());
            for (idx, info) in infos.iter().enumerate() {
                if let Some(info) = info {
                    prop_assert_eq!(index.get(&info.addr(), &infos), Some(idx));
                }
            }
            for a in (0..1024).map(addr_of) {
                let held = infos.iter().flatten().any(|r| r.addr() == a);
                prop_assert_eq!(index.get(&a, &infos).is_some(), held, "{:?}", a);
            }
        }

        /// Narrowing the times to `u32` changes no verdict: over every `now`
        /// a `u32` stamp can hold, and times at 0, in the future and past
        /// the horizon, `is_terrible` agrees with Core's formula on `i64`
        /// times, and `add`, `attempt` and `good` store `now` exactly.
        #[test]
        fn u32_times_are_exact(
            now in any::<u32>().prop_map(i64::from),
            (time, last_try, last_success) in (near(), near(), near()),
            attempts in 0u32..12,
            core in any::<bool>(),
        ) {
            let cfg = if core {
                AddrManConfig::bitcoin_core()
            } else {
                AddrManConfig::paper_proposal()
            };
            let [time, last_try, last_success] =
                [time, last_try, last_success].map(|t| stamp(now + t));
            let info = AddrInfo {
                time,
                last_try,
                last_success,
                attempts,
                ..AddrInfo::fresh(addr_of(1), [10, 0, 0, 0], now)
            };
            let wide = [time, last_try, last_success].map(i64::from);
            prop_assert_eq!(
                info.is_terrible(now, &cfg),
                is_terrible_i64(wide, attempts, now, &cfg),
                "{:?} at {}", info, now
            );

            let a = addr_of(2);
            let mut am = AddrMan::new(3, cfg);
            am.add(a, addr_of(3), now);
            prop_assert_eq!(i64::from(am.info(&a).unwrap().time), now);
            am.attempt(&a, now);
            prop_assert_eq!(i64::from(am.info(&a).unwrap().last_try), now);
            am.good(&a, now);
            let info = am.info(&a).unwrap();
            let stamps = [info.time, info.last_try, info.last_success];
            prop_assert_eq!(stamps.map(i64::from), [now; 3]);
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
