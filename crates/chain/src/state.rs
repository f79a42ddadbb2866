//! Block-chain state tracking: a block tree with best-tip selection,
//! locators, and header serving — the substrate a node needs for initial
//! block download and for deciding whether it is "synchronized" (the paper's
//! central metric).

use bitsync_protocol::block::{Block, BlockHeader};
use bitsync_protocol::hash::{table_bytes, Hash256, IdMap};
use bitsync_protocol::tx::Transaction;
use std::fmt;

/// Error returned when a block cannot be connected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// The parent block is unknown (orphan).
    UnknownParent(Hash256),
    /// The block is already present.
    Duplicate(Hash256),
    /// The Merkle root does not commit to the transactions.
    BadMerkleRoot(Hash256),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnknownParent(h) => write!(f, "unknown parent block {h}"),
            ChainError::Duplicate(h) => write!(f, "duplicate block {h}"),
            ChainError::BadMerkleRoot(h) => write!(f, "bad merkle root in block {h}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// A best-tip change: the active chain switched from `old_tip` to
/// `new_tip`. `depth() == 0` is a plain extension (the new tip builds on
/// the old one); `depth() > 0` is a reorganization that disconnected
/// `depth()` blocks of the previously active chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReorgInfo {
    /// The previously active tip.
    pub old_tip: Hash256,
    /// The newly active tip.
    pub new_tip: Hash256,
    /// Height of the previously active tip.
    pub old_height: u64,
    /// Height of the newly active tip.
    pub new_height: u64,
    /// Height of the last block common to both chains (the fork point).
    pub fork_height: u64,
}

impl ReorgInfo {
    /// Blocks disconnected from the old active chain.
    pub fn depth(&self) -> u64 {
        self.old_height - self.fork_height
    }

    /// Whether any active block was disconnected (a true reorg, not a
    /// plain tip extension).
    pub fn is_reorg(&self) -> bool {
        self.depth() > 0
    }
}

#[derive(Clone, Debug)]
struct Entry {
    header: BlockHeader,
    height: u64,
}

/// A block tree with cumulative-height best-tip selection.
///
/// The simulator does not model proof-of-work difficulty adjustment, so the
/// best tip is the highest block (first-seen wins ties), which matches
/// Bitcoin's behaviour under constant difficulty.
///
/// # Examples
///
/// ```
/// use bitsync_chain::state::ChainState;
/// use bitsync_protocol::block::Block;
/// use bitsync_protocol::tx::Transaction;
///
/// let mut chain = ChainState::with_genesis();
/// let b1 = Block::assemble(2, chain.tip_hash(), 1, 0, vec![Transaction::coinbase(1, 50)]);
/// chain.connect_block(&b1)?;
/// assert_eq!(chain.height(), 1);
/// # Ok::<(), bitsync_chain::state::ChainError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ChainState {
    entries: IdMap<Hash256, Entry>,
    /// Full blocks we have bodies for (headers-only entries are absent).
    bodies: IdMap<Hash256, Block>,
    /// Best chain by height: `by_height[h]` is the active block at height h.
    by_height: Vec<Hash256>,
    tip: Hash256,
    genesis: Hash256,
}

impl ChainState {
    /// Creates a chain containing only the deterministic simulation genesis
    /// block.
    pub fn with_genesis() -> Self {
        let genesis = Block::assemble(1, Hash256::ZERO, 0, 0, vec![]);
        let hash = genesis.block_hash();
        let mut entries = IdMap::default();
        entries.insert(
            hash,
            Entry {
                header: genesis.header,
                height: 0,
            },
        );
        let mut bodies = IdMap::default();
        bodies.insert(hash, genesis);
        ChainState {
            entries,
            bodies,
            by_height: vec![hash],
            tip: hash,
            genesis: hash,
        }
    }

    /// The genesis block hash (identical across all simulated nodes).
    pub fn genesis_hash(&self) -> Hash256 {
        self.genesis
    }

    /// The best tip hash.
    pub fn tip_hash(&self) -> Hash256 {
        self.tip
    }

    /// Height of the best tip (genesis is 0): the active chain's length
    /// less one, read without hashing the tip.
    pub fn height(&self) -> u64 {
        let height = self.by_height.len() as u64 - 1;
        debug_assert_eq!(height, self.entries[&self.tip].height);
        height
    }

    /// Whether the block (header) is known.
    pub fn contains(&self, hash: &Hash256) -> bool {
        self.entries.contains_key(hash)
    }

    /// Whether the full block body is stored.
    pub fn has_body(&self, hash: &Hash256) -> bool {
        self.bodies.contains_key(hash)
    }

    /// Height of a known block.
    pub fn height_of(&self, hash: &Hash256) -> Option<u64> {
        self.entries.get(hash).map(|e| e.height)
    }

    /// The stored body of a block, if present.
    pub fn block(&self, hash: &Hash256) -> Option<&Block> {
        self.bodies.get(hash)
    }

    /// The header of a known block.
    pub fn header(&self, hash: &Hash256) -> Option<BlockHeader> {
        self.entries.get(hash).map(|e| e.header)
    }

    /// Hash of the active-chain block at `height`, if within the chain.
    pub fn hash_at_height(&self, height: u64) -> Option<Hash256> {
        self.by_height.get(height as usize).copied()
    }

    /// Bytes the chain allocates: the header entries, the block bodies
    /// with their transaction lists ([`table_bytes`]) and the active-chain
    /// index. A transaction body is shared with the world and not counted.
    pub fn footprint(&self) -> usize {
        let lists: usize = self.bodies.values().map(|b| b.txs.capacity()).sum();
        table_bytes(self.entries.capacity(), size_of::<(Hash256, Entry)>())
            + table_bytes(self.bodies.capacity(), size_of::<(Hash256, Block)>())
            + lists * size_of::<Transaction>()
            + self.by_height.capacity() * size_of::<Hash256>()
    }

    /// Connects a header without a body (headers-first sync), returning
    /// its hash and the tip change it caused, if any.
    ///
    /// # Errors
    ///
    /// Fails on duplicates and unknown parents.
    pub fn connect_header(
        &mut self,
        header: &BlockHeader,
    ) -> Result<(Hash256, Option<ReorgInfo>), ChainError> {
        let hash = header.block_hash();
        Ok((hash, self.link_header(hash, header)?))
    }

    /// Links `header`, whose hash the caller has already computed.
    fn link_header(
        &mut self,
        hash: Hash256,
        header: &BlockHeader,
    ) -> Result<Option<ReorgInfo>, ChainError> {
        if self.entries.contains_key(&hash) {
            return Err(ChainError::Duplicate(hash));
        }
        let parent = self
            .entries
            .get(&header.prev_blockhash)
            .ok_or(ChainError::UnknownParent(header.prev_blockhash))?;
        let height = parent.height + 1;
        self.entries.insert(
            hash,
            Entry {
                header: *header,
                height,
            },
        );
        Ok(self.maybe_reorg(hash, height))
    }

    /// Connects a full block, verifying its Merkle commitment, returning
    /// the tip change it caused, if any.
    ///
    /// # Errors
    ///
    /// Fails on duplicates, unknown parents, and Merkle mismatches.
    pub fn connect_block(&mut self, block: &Block) -> Result<Option<ReorgInfo>, ChainError> {
        let hash = block.block_hash();
        if !block.check_merkle_root() {
            return Err(ChainError::BadMerkleRoot(hash));
        }
        if self.bodies.contains_key(&hash) {
            return Err(ChainError::Duplicate(hash));
        }
        let reorg = if !self.entries.contains_key(&hash) {
            self.link_header(hash, &block.header)?
        } else {
            None
        };
        self.bodies.insert(hash, block.clone());
        Ok(reorg)
    }

    fn maybe_reorg(&mut self, hash: Hash256, height: u64) -> Option<ReorgInfo> {
        let old_tip = self.tip;
        let old_height = self.entries[&old_tip].height;
        if height <= old_height {
            return None; // first-seen wins ties: strictly higher only
        }
        self.tip = hash;
        // Rebuild the by_height index along the new best path, noting where
        // it rejoins the previously active chain (the fork point).
        self.by_height.resize(height as usize + 1, Hash256::ZERO);
        let mut cur = hash;
        let fork_height = loop {
            let e = &self.entries[&cur];
            let h = e.height as usize;
            if self.by_height[h] == cur {
                break h as u64; // joined the old active chain
            }
            self.by_height[h] = cur;
            if h == 0 {
                break 0;
            }
            cur = e.header.prev_blockhash;
        };
        Some(ReorgInfo {
            old_tip,
            new_tip: hash,
            old_height,
            new_height: height,
            fork_height,
        })
    }

    /// The first locator hash found on the active chain — the highest
    /// block the locator's owner and this chain agree on. `None` when no
    /// locator entry is active here (a foreign genesis).
    pub fn common_ancestor(&self, locator: &[Hash256]) -> Option<Hash256> {
        for l in locator {
            if let Some(h) = self.height_of(l) {
                if self.by_height.get(h as usize) == Some(l) {
                    return Some(*l);
                }
            }
        }
        None
    }

    /// Builds a block locator: tip, then exponentially sparser ancestors,
    /// ending at genesis — the `GETHEADERS` request format.
    pub fn locator(&self) -> Vec<Hash256> {
        let mut out = Vec::new();
        let tip_height = self.height() as i64;
        let mut step = 1i64;
        let mut h = tip_height;
        while h > 0 {
            out.push(self.by_height[h as usize]);
            if out.len() >= 10 {
                step *= 2;
            }
            h -= step;
        }
        out.push(self.genesis);
        out
    }

    /// Serves headers after the first locator hash found on the active
    /// chain, up to `max` headers — the `GETHEADERS` → `HEADERS` response.
    pub fn headers_after(&self, locator: &[Hash256], max: usize) -> Vec<BlockHeader> {
        let start_height = self
            .common_ancestor(locator)
            .and_then(|a| self.height_of(&a))
            .unwrap_or(0);
        let mut out = Vec::new();
        for h in (start_height + 1)..=self.height() {
            if out.len() >= max {
                break;
            }
            let hash = self.by_height[h as usize];
            out.push(self.entries[&hash].header);
        }
        out
    }

    /// Whether this chain's tip is at least as high as `other_height` — the
    /// "synchronized" predicate used throughout the paper.
    pub fn is_synced_to(&self, other_height: u64) -> bool {
        self.height() >= other_height
    }
}

impl Default for ChainState {
    fn default() -> Self {
        Self::with_genesis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsync_protocol::tx::Transaction;

    fn extend(chain: &mut ChainState, n: u64, tag: u64) -> Vec<Block> {
        let mut out = Vec::new();
        for i in 0..n {
            let b = Block::assemble(
                2,
                chain.tip_hash(),
                (tag * 1000 + i) as u32,
                i as u32,
                vec![Transaction::coinbase(tag * 1_000_000 + i, 50)],
            );
            chain.connect_block(&b).unwrap();
            out.push(b);
        }
        out
    }

    #[test]
    fn genesis_only_chain() {
        let c = ChainState::with_genesis();
        assert_eq!(c.height(), 0);
        assert_eq!(c.tip_hash(), c.genesis_hash());
        assert!(c.has_body(&c.genesis_hash()));
    }

    #[test]
    fn genesis_is_deterministic_across_instances() {
        assert_eq!(
            ChainState::with_genesis().genesis_hash(),
            ChainState::with_genesis().genesis_hash()
        );
    }

    #[test]
    fn linear_extension() {
        let mut c = ChainState::with_genesis();
        let blocks = extend(&mut c, 5, 1);
        assert_eq!(c.height(), 5);
        assert_eq!(c.tip_hash(), blocks[4].block_hash());
        assert_eq!(c.hash_at_height(3), Some(blocks[2].block_hash()));
    }

    #[test]
    fn duplicate_rejected() {
        let mut c = ChainState::with_genesis();
        let blocks = extend(&mut c, 1, 1);
        assert_eq!(
            c.connect_block(&blocks[0]),
            Err(ChainError::Duplicate(blocks[0].block_hash()))
        );
    }

    #[test]
    fn orphan_rejected() {
        let mut c = ChainState::with_genesis();
        let orphan = Block::assemble(2, Hash256::hash_of(b"nowhere"), 1, 1, vec![]);
        assert!(matches!(
            c.connect_block(&orphan),
            Err(ChainError::UnknownParent(_))
        ));
    }

    #[test]
    fn bad_merkle_rejected() {
        let mut c = ChainState::with_genesis();
        let good = Block::assemble(2, c.tip_hash(), 1, 1, vec![Transaction::coinbase(1, 50)]);
        let mut txs = good.txs.clone();
        txs.push(Transaction::coinbase(2, 50)); // break commitment
        let b = Block::from_parts(good.header, txs);
        assert!(matches!(
            c.connect_block(&b),
            Err(ChainError::BadMerkleRoot(_))
        ));
    }

    #[test]
    fn swapped_transaction_rejected() {
        let mut c = ChainState::with_genesis();
        let txs = vec![Transaction::coinbase(1, 50), Transaction::coinbase(2, 50)];
        let good = Block::assemble(2, c.tip_hash(), 1, 1, txs);
        // Same header, one transaction rebuilt with a different value.
        let mut outputs = good.txs[1].outputs.clone();
        outputs[0].value += 1;
        let mut txs = good.txs.clone();
        txs[1] = Transaction::from_parts(2, good.txs[1].inputs.clone(), outputs, 0);
        let b = Block::from_parts(good.header, txs);
        assert!(!b.check_merkle_root());
        assert_eq!(
            c.connect_block(&b),
            Err(ChainError::BadMerkleRoot(good.block_hash()))
        );
        assert_eq!(c.connect_block(&good).map(|r| r.is_some()), Ok(true));
    }

    #[test]
    fn fork_reorg_to_longer_chain() {
        let mut c = ChainState::with_genesis();
        let main = extend(&mut c, 2, 1);
        // Fork from genesis with 3 blocks (longer).
        let f1 = Block::assemble(
            2,
            c.genesis_hash(),
            9,
            1,
            vec![Transaction::coinbase(91, 50)],
        );
        let f2 = Block::assemble(
            2,
            f1.block_hash(),
            9,
            2,
            vec![Transaction::coinbase(92, 50)],
        );
        let f3 = Block::assemble(
            2,
            f2.block_hash(),
            9,
            3,
            vec![Transaction::coinbase(93, 50)],
        );
        assert_eq!(c.connect_block(&f1).unwrap(), None);
        assert_eq!(c.tip_hash(), main[1].block_hash()); // still main
        assert_eq!(c.connect_block(&f2).unwrap(), None);
        assert_eq!(c.tip_hash(), main[1].block_hash()); // tie: first seen wins
        let reorg = c.connect_block(&f3).unwrap().expect("tip switched");
        assert_eq!(c.tip_hash(), f3.block_hash()); // reorged
        assert_eq!(c.hash_at_height(1), Some(f1.block_hash()));
        assert_eq!(c.hash_at_height(2), Some(f2.block_hash()));
        assert_eq!(reorg.old_tip, main[1].block_hash());
        assert_eq!(reorg.new_tip, f3.block_hash());
        assert_eq!(reorg.old_height, 2);
        assert_eq!(reorg.new_height, 3);
        assert_eq!(reorg.fork_height, 0); // forked at genesis
        assert_eq!(reorg.depth(), 2);
        assert!(reorg.is_reorg());
    }

    #[test]
    fn plain_extension_reports_depth_zero() {
        let mut c = ChainState::with_genesis();
        let b = Block::assemble(2, c.tip_hash(), 1, 0, vec![Transaction::coinbase(1, 50)]);
        let info = c.connect_block(&b).unwrap().expect("tip advanced");
        assert_eq!(info.fork_height, 0);
        assert_eq!(info.old_height, 0);
        assert_eq!(info.new_height, 1);
        assert_eq!(info.depth(), 0);
        assert!(!info.is_reorg());
    }

    #[test]
    fn mid_chain_fork_reports_fork_point() {
        let mut c = ChainState::with_genesis();
        let main = extend(&mut c, 4, 1);
        // Fork off main[1] (height 2) with 3 blocks, reaching height 5.
        let mut prev = main[1].block_hash();
        let mut last_info = None;
        for i in 0..3u64 {
            let b = Block::assemble(
                2,
                prev,
                (7000 + i) as u32,
                i as u32,
                vec![Transaction::coinbase(7_000_000 + i, 50)],
            );
            prev = b.block_hash();
            last_info = c.connect_block(&b).unwrap();
        }
        let reorg = last_info.expect("height 5 beats height 4");
        assert_eq!(reorg.old_tip, main[3].block_hash());
        assert_eq!(reorg.fork_height, 2);
        assert_eq!(reorg.depth(), 2);
        assert_eq!(c.hash_at_height(2), Some(main[1].block_hash()));
        assert_eq!(c.height(), 5);
    }

    #[test]
    fn common_ancestor_finds_shared_prefix() {
        let mut donor = ChainState::with_genesis();
        let blocks = extend(&mut donor, 6, 1);
        let mut receiver = ChainState::with_genesis();
        for b in blocks.iter().take(3) {
            receiver.connect_block(b).unwrap();
        }
        // Receiver then forks onto a private chain of its own.
        extend(&mut receiver, 2, 9);
        assert_eq!(
            donor.common_ancestor(&receiver.locator()),
            Some(blocks[2].block_hash())
        );
        assert_eq!(
            donor.common_ancestor(&[Hash256::hash_of(b"alien")]),
            None,
            "foreign locator shares nothing"
        );
    }

    #[test]
    fn headers_only_sync_then_bodies() {
        let mut donor = ChainState::with_genesis();
        let blocks = extend(&mut donor, 3, 1);
        let mut c = ChainState::with_genesis();
        for b in &blocks {
            c.connect_header(&b.header).unwrap();
        }
        assert_eq!(c.height(), 3);
        assert!(!c.has_body(&blocks[0].block_hash()));
        c.connect_block(&blocks[0]).unwrap();
        assert!(c.has_body(&blocks[0].block_hash()));
    }

    #[test]
    fn locator_starts_at_tip_ends_at_genesis() {
        let mut c = ChainState::with_genesis();
        extend(&mut c, 40, 1);
        let loc = c.locator();
        assert_eq!(loc[0], c.tip_hash());
        assert_eq!(*loc.last().unwrap(), c.genesis_hash());
        // Exponential back-off keeps locators short.
        assert!(loc.len() < 20, "locator len {}", loc.len());
    }

    #[test]
    fn headers_after_serves_missing_suffix() {
        let mut donor = ChainState::with_genesis();
        let blocks = extend(&mut donor, 10, 1);
        let mut receiver = ChainState::with_genesis();
        for b in blocks.iter().take(4) {
            receiver.connect_block(b).unwrap();
        }
        let headers = donor.headers_after(&receiver.locator(), 100);
        assert_eq!(headers.len(), 6);
        assert_eq!(headers[0].block_hash(), blocks[4].block_hash());
        assert_eq!(headers[5].block_hash(), blocks[9].block_hash());
    }

    #[test]
    fn headers_after_respects_max() {
        let mut donor = ChainState::with_genesis();
        extend(&mut donor, 10, 1);
        let receiver = ChainState::with_genesis();
        assert_eq!(donor.headers_after(&receiver.locator(), 3).len(), 3);
    }

    #[test]
    fn headers_after_unknown_locator_serves_from_genesis() {
        let mut donor = ChainState::with_genesis();
        extend(&mut donor, 5, 1);
        let headers = donor.headers_after(&[Hash256::hash_of(b"alien")], 100);
        assert_eq!(headers.len(), 5);
    }

    #[test]
    fn sync_predicate() {
        let mut c = ChainState::with_genesis();
        extend(&mut c, 5, 1);
        assert!(c.is_synced_to(5));
        assert!(c.is_synced_to(4));
        assert!(!c.is_synced_to(6));
    }
}
