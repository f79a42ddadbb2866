//! Block relay and chain sync (the benchmark's
//! `node.node.accept_block_ns`): full blocks, headers-first sync, BIP 152
//! compact blocks with the `GETBLOCKTXN` round trip, the bounded orphan
//! pool, reorg records, the `ban_on_reorg` misconfiguration, and local
//! mining.

use super::{unix_time, Node, NodeRequest, BAN_THRESHOLD};
use crate::peer::NodeId;
use bitsync_chain::{ChainError, ReorgInfo};
use bitsync_protocol::block::{Block, BlockHeader};
use bitsync_protocol::compact::{
    reconstruct, BlockTxn, BlockTxnRequest, CompactBlock, Reconstruction,
};
use bitsync_protocol::hash::{Hash256, InvVect};
use bitsync_protocol::message::{GetHeaders, Message};
use bitsync_protocol::tx::Transaction;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::SimTime;
use std::collections::VecDeque;

/// Maximum blocks parked in the orphan pool awaiting a parent; when full,
/// the oldest orphan is evicted first (Core bounds its orphan set the same
/// way, by memory).
pub const MAX_ORPHAN_BLOCKS: usize = 32;

/// A compact block awaiting its missing transactions.
#[derive(Clone, Debug)]
pub(super) struct PendingCompact {
    cb: CompactBlock,
    from: NodeId,
}

impl Node {
    pub(super) fn on_block(
        &mut self,
        from: NodeId,
        block: Block,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        self.sender_knows(from, block.block_hash());
        self.accept_block(block, Some(from), now, requests);
    }

    /// True when connecting a block or header on `parent` would displace
    /// the active chain: the parent is known but off the active tip, and
    /// a child on it would outrank the current tip.
    fn would_reorg(&self, parent: &Hash256) -> bool {
        *parent != self.chain.tip_hash()
            && self
                .chain
                .height_of(parent)
                .is_some_and(|ph| ph + 1 > self.chain.height())
    }

    /// The `ban_on_reorg` misconfiguration (see
    /// [`crate::config::ResilienceConfig::ban_on_reorg`]): discourage the
    /// peer as if it were a hostile miner. Returns `true` when it fired,
    /// in which case the caller must not connect the announcement.
    fn ban_fork_announcer(
        &mut self,
        from: NodeId,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) -> bool {
        if !self.cfg.resilience.ban_on_reorg {
            return false;
        }
        self.misbehave(from, BAN_THRESHOLD, now, requests);
        true
    }

    /// Accepts a block (from the network or mined locally), connects any
    /// parked orphans it unblocks, and relays it. Returns `true` if the
    /// block itself joined the block tree.
    pub fn accept_block(
        &mut self,
        block: Block,
        from: Option<NodeId>,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) -> bool {
        let hash = block.block_hash();
        if self.chain.has_body(&hash) {
            return false;
        }
        if !self.chain.contains(&block.header.prev_blockhash) {
            // Orphan: park it and ask the sender for the missing history.
            self.park_orphan(block);
            if let Some(peer) = from {
                self.send_getheaders(peer);
            }
            return false;
        }
        if let Some(peer) = from {
            if self.would_reorg(&block.header.prev_blockhash)
                && self.ban_fork_announcer(peer, now, requests)
            {
                return false;
            }
        }
        if !self.connect_and_relay(block, hash, now) {
            return false;
        }
        // Connect parked orphans this block (transitively) unblocked.
        let mut parents = vec![hash];
        while let Some(parent) = parents.pop() {
            let mut i = 0;
            while i < self.orphans.len() {
                if self.orphans[i].header.prev_blockhash == parent {
                    let orphan = self.orphans.remove(i).expect("index in bounds");
                    let ohash = orphan.block_hash();
                    if self.connect_and_relay(orphan, ohash, now) {
                        parents.push(ohash);
                    }
                } else {
                    i += 1;
                }
            }
        }
        true
    }

    /// Parks an orphan block, deduplicating by hash and evicting the
    /// oldest entry when the pool is full.
    fn park_orphan(&mut self, block: Block) {
        let hash = block.block_hash();
        if self.orphans.iter().any(|b| b.block_hash() == hash) {
            return;
        }
        if self.orphans.len() == MAX_ORPHAN_BLOCKS {
            self.orphans.pop_front();
        }
        self.orphans.push_back(block);
    }

    /// Number of blocks currently parked in the orphan pool.
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }

    /// Connects one block whose parent is known (`hash` is its block
    /// hash), updating stale-tip bookkeeping, reorg records, the
    /// mempool, and relaying it on.
    fn connect_and_relay(&mut self, block: Block, hash: Hash256, now: SimTime) -> bool {
        let Ok(reorg) = self.chain.connect_block(&block) else {
            return false;
        };
        // The tip advanced: reset stale-tip detection and retire any
        // extra outbound slot it granted (the connection itself stays;
        // natural churn brings the count back to the configured target).
        self.last_tip_change = now;
        self.stale_tip_extra = false;
        self.record_reorg(reorg);
        self.mempool.remove_confirmed(&block.txids());
        self.relay_block(&hash, &block);
        true
    }

    /// Records a reorg reported by the chain for the world to drain.
    fn record_reorg(&mut self, reorg: Option<ReorgInfo>) {
        if let Some(info) = reorg {
            if info.is_reorg() {
                self.pending_reorgs.push(info);
            }
        }
    }

    /// Takes the reorgs observed since the last drain (world-side
    /// trace/metric hook).
    pub fn take_reorgs(&mut self) -> Vec<ReorgInfo> {
        std::mem::take(&mut self.pending_reorgs)
    }

    /// The message that carries `block` to one peer: the full block, or
    /// its BIP 152 compact form under a nonce drawn per recipient.
    pub(super) fn block_message(block: &Block, compact: bool, rng: &mut SimRng) -> Message {
        if compact {
            let nonce = rng.next_u64();
            Message::CmpctBlock(Box::new(CompactBlock::from_block(block, nonce)))
        } else {
            Message::Block(Box::new(block.clone()))
        }
    }

    fn relay_block(&mut self, hash: &Hash256, block: &Block) {
        let prioritize = self.cfg.priority_relay;
        for slot in self.relay_targets(hash) {
            self.peers.mark_known(slot, *hash);
            let compact = self.peers.slot_mut(slot).prefers_compact && self.cfg.compact_blocks;
            let msg = Self::block_message(block, compact, &mut self.rng);
            self.peers.push_send(slot, msg, prioritize);
        }
    }

    /// Asks `peer` for the headers after our chain (a locator
    /// `GETHEADERS`): the header sync a fresh outbound connection starts,
    /// and the re-fetch of an orphan's missing history.
    pub(super) fn send_getheaders(&mut self, peer: NodeId) {
        let locator = self.chain.locator();
        self.send(
            peer,
            Message::GetHeaders(Box::new(GetHeaders {
                locator,
                stop: Hash256::ZERO,
            })),
        );
    }

    pub(super) fn on_getheaders(&mut self, from: NodeId, g: GetHeaders) {
        let headers = self.chain.headers_after(&g.locator, 2000);
        if !headers.is_empty() {
            self.send(from, Message::Headers(headers));
        }
    }

    pub(super) fn on_headers(
        &mut self,
        from: NodeId,
        headers: Vec<BlockHeader>,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        let mut want: Vec<InvVect> = Vec::new();
        for h in &headers {
            if self.would_reorg(&h.prev_blockhash) && self.ban_fork_announcer(from, now, requests) {
                return;
            }
            let hash = match self.chain.connect_header(h) {
                Ok((hash, reorg)) => {
                    self.record_reorg(reorg);
                    hash
                }
                // Already in the tree: its body may still be wanted.
                Err(ChainError::Duplicate(hash)) => hash,
                Err(_) => continue,
            };
            if !self.chain.has_body(&hash) {
                want.push(InvVect::block(hash));
            }
        }
        // Fetch bodies in batches of 16 (Core: MAX_BLOCKS_IN_TRANSIT).
        for chunk in want.chunks(16) {
            self.send(from, Message::GetData(chunk.to_vec()));
        }
    }

    /// Rebuilds the block behind `cb` from the mempool, then from `extra`:
    /// the transactions a `BLOCKTXN` supplied, in the missing-index order
    /// they were requested in, which is the order reconstruction asks for
    /// them.
    fn rebuild(&self, cb: &CompactBlock, mut extra: VecDeque<Transaction>) -> Reconstruction {
        let keys = cb.keys();
        let index = self.mempool.short_id_index(&keys);
        reconstruct(cb, |sid| {
            index
                .get(&sid.to_u64())
                .and_then(|txid| self.mempool.get(txid))
                .cloned()
                .or_else(|| extra.pop_front_if(|t| keys.short_id(&t.txid()) == sid))
        })
    }

    pub(super) fn on_cmpctblock(
        &mut self,
        from: NodeId,
        cb: CompactBlock,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        let hash = cb.block_hash();
        self.sender_knows(from, hash);
        if self.chain.has_body(&hash) {
            return;
        }
        match self.rebuild(&cb, VecDeque::new()) {
            Reconstruction::Complete(block) => {
                self.accept_block(*block, Some(from), now, requests);
            }
            Reconstruction::Missing { indexes } => {
                self.pending_compact
                    .insert(hash, PendingCompact { cb, from });
                self.send(
                    from,
                    Message::GetBlockTxn(Box::new(BlockTxnRequest {
                        block_hash: hash,
                        indexes,
                    })),
                );
            }
            // Core's answer to `READ_STATUS_INVALID`: drop the
            // announcement and score its sender up to the ban threshold.
            Reconstruction::Invalid => {
                self.misbehave(from, BAN_THRESHOLD, now, requests);
            }
        }
    }

    pub(super) fn on_getblocktxn(&mut self, from: NodeId, req: BlockTxnRequest) {
        let Some(block) = self.chain.block(&req.block_hash) else {
            return;
        };
        let txs: Vec<Transaction> = req
            .indexes
            .iter()
            .filter_map(|&i| block.txs.get(i as usize).cloned())
            .collect();
        self.send(
            from,
            Message::BlockTxn(Box::new(BlockTxn {
                block_hash: req.block_hash,
                txs,
            })),
        );
    }

    pub(super) fn on_blocktxn(
        &mut self,
        bt: BlockTxn,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        let Some(pending) = self.pending_compact.remove(&bt.block_hash) else {
            return;
        };
        match self.rebuild(&pending.cb, bt.txs.into()) {
            Reconstruction::Complete(block) => {
                self.accept_block(*block, Some(pending.from), now, requests);
            }
            Reconstruction::Missing { .. } => {}
            Reconstruction::Invalid => {
                self.misbehave(pending.from, BAN_THRESHOLD, now, requests);
            }
        }
    }

    /// Mines a block locally (used by the world's miner schedule) and
    /// relays it.
    pub fn mine_and_relay(
        &mut self,
        miner: &mut bitsync_chain::Miner,
        now: SimTime,
    ) -> Option<Hash256> {
        let block = miner.mine(
            self.chain.tip_hash(),
            unix_time(now).max(0) as u32,
            &self.mempool,
            &mut self.rng,
        );
        let hash = block.block_hash();
        // Local production never bans (no sender), so the scratch request
        // buffer stays empty.
        let mut requests = Vec::new();
        if self.accept_block(block, None, now, &mut requests) {
            debug_assert!(requests.is_empty());
            Some(hash)
        } else {
            None
        }
    }

    /// Whether this node's tip matches `best_height` (the paper's
    /// synchronization predicate).
    pub fn is_synchronized(&self, best_height: u64) -> bool {
        self.chain.is_synced_to(best_height)
    }
}
