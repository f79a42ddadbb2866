//! Block headers, full blocks, and the Merkle root binding the two.
//!
//! A block is hashed where it is built: [`Block`]'s constructors run the
//! header's SHA-256d once and [`Block::block_hash`] is a field read, so the
//! hundreds of deliveries of one block across a world (most of them
//! duplicates, rejected right after the hash lookup) share one hash
//! computation. [`BlockHeader::block_hash`] stays the one place the hash is
//! computed; a header is `Copy` and carries no memo.

use crate::hash::Hash256;
use crate::tx::{Transaction, MIN_TX_BYTES};
use crate::wire::{Decodable, DecodeError, Encodable, Reader, Writer};
use bitsync_crypto::sha256d64;
use std::ops::Deref;

/// Sanity bound on transactions per block when decoding.
pub(crate) const MAX_BLOCK_TXS: u64 = 1_000_000;

/// An 80-byte Bitcoin block header.
///
/// # Examples
///
/// ```
/// use bitsync_protocol::block::BlockHeader;
/// use bitsync_protocol::hash::Hash256;
///
/// let h = BlockHeader {
///     version: 0x2000_0000,
///     prev_blockhash: Hash256::ZERO,
///     merkle_root: Hash256::ZERO,
///     time: 1_600_000_000,
///     bits: 0x1d00ffff,
///     nonce: 0,
/// };
/// assert!(!h.block_hash().is_zero());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockHeader {
    /// Version / signalling bits.
    pub version: i32,
    /// Hash of the previous block header.
    pub prev_blockhash: Hash256,
    /// Merkle root over the block's transactions.
    pub merkle_root: Hash256,
    /// Block timestamp, UNIX seconds.
    pub time: u32,
    /// Compact difficulty target.
    pub bits: u32,
    /// Proof-of-work nonce.
    pub nonce: u32,
}

impl BlockHeader {
    /// The block hash: double-SHA-256 of the 80-byte header.
    pub fn block_hash(&self) -> Hash256 {
        Hash256::hash_of(&self.to_bytes())
    }

    /// The 80-byte wire form, built on the stack.
    pub fn to_bytes(&self) -> [u8; 80] {
        let mut out = [0u8; 80];
        out[0..4].copy_from_slice(&self.version.to_le_bytes());
        out[4..36].copy_from_slice(self.prev_blockhash.as_bytes());
        out[36..68].copy_from_slice(self.merkle_root.as_bytes());
        out[68..72].copy_from_slice(&self.time.to_le_bytes());
        out[72..76].copy_from_slice(&self.bits.to_le_bytes());
        out[76..80].copy_from_slice(&self.nonce.to_le_bytes());
        out
    }
}

impl Encodable for BlockHeader {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.to_bytes());
    }
}

impl Decodable for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BlockHeader {
            version: r.u32_le("header.version")? as i32,
            prev_blockhash: Hash256::decode(r)?,
            merkle_root: Hash256::decode(r)?,
            time: r.u32_le("header.time")?,
            bits: r.u32_le("header.bits")?,
            nonce: r.u32_le("header.nonce")?,
        })
    }
}

/// Computes the Merkle root of a list of txids, duplicating the last entry
/// at odd levels exactly as Bitcoin does. An empty list yields the zero hash
/// (only possible for a malformed block).
pub fn merkle_root(txids: &[Hash256]) -> Hash256 {
    merkle_root_of(txids.len(), |i| txids[i])
}

/// The Merkle root over `n` leaves, leaf `i` being `leaf(i)`. The first
/// level is hashed from the leaves into one buffer, and every level above
/// it in place at the front of that buffer: node `i` of a level overwrites
/// node `i` of the level below only after nodes `2i` and `2i + 1` are read.
fn merkle_root_of(n: usize, leaf: impl Fn(usize) -> Hash256) -> Hash256 {
    match n {
        0 => return Hash256::ZERO,
        1 => return leaf(0),
        _ => {}
    }
    let mut level: Vec<Hash256> = (0..n.div_ceil(2))
        .map(|i| merkle_node(leaf(2 * i), leaf((2 * i + 1).min(n - 1))))
        .collect();
    let mut len = level.len();
    while len > 1 {
        for i in 0..len.div_ceil(2) {
            level[i] = merkle_node(level[2 * i], level[(2 * i + 1).min(len - 1)]);
        }
        len = len.div_ceil(2);
    }
    level[0]
}

/// An inner Merkle node: SHA-256d of its two children's bytes.
fn merkle_node(left: Hash256, right: Hash256) -> Hash256 {
    let mut pair = [0u8; 64];
    pair[..32].copy_from_slice(left.as_bytes());
    pair[32..].copy_from_slice(right.as_bytes());
    Hash256::from_bytes(sha256d64(&pair))
}

/// The contents of a [`Block`]: header and transactions, readable through
/// the block's `Deref`, plus the block hash computed from the header.
///
/// Only the [`Block`] constructors build one (the `hash` field is private)
/// and a block hands out no `&mut BlockBody`, so the memoized hash can
/// never go stale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockBody {
    /// Double-SHA-256 of `header`.
    hash: Hash256,
    /// The header.
    pub header: BlockHeader,
    /// Transactions, coinbase first.
    pub txs: Vec<Transaction>,
}

/// A full block: header plus transactions, immutable once built.
///
/// Fields are read through `Deref` (`block.header.prev_blockhash`,
/// `block.txs`); to change one, build a new block with
/// [`Block::from_parts`], which hashes the new header:
///
/// ```compile_fail
/// use bitsync_protocol::block::Block;
/// use bitsync_protocol::hash::Hash256;
///
/// let mut block = Block::assemble(2, Hash256::ZERO, 0, 0, vec![]);
/// block.header.nonce = 1; // no `DerefMut`: the memoized hash would go stale
/// ```
///
/// ```compile_fail
/// use bitsync_protocol::block::Block;
/// use bitsync_protocol::hash::Hash256;
///
/// let mut block = Block::assemble(2, Hash256::ZERO, 0, 0, vec![]);
/// block.txs.clear();
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block(BlockBody);

impl Block {
    /// Builds a block from its header and transactions, computing the
    /// block hash. The Merkle root is taken as given (see
    /// [`Block::check_merkle_root`]).
    pub fn from_parts(header: BlockHeader, txs: Vec<Transaction>) -> Self {
        Block::with_hash(header.block_hash(), header, txs)
    }

    /// [`Block::from_parts`] for a caller that already holds `header`'s
    /// hash (a [`crate::compact::CompactBlock`], whose constructors
    /// computed it).
    pub(crate) fn with_hash(hash: Hash256, header: BlockHeader, txs: Vec<Transaction>) -> Self {
        debug_assert_eq!(hash, header.block_hash());
        Block(BlockBody { hash, header, txs })
    }

    /// Assembles a block over `txs`, computing the Merkle root.
    pub fn assemble(
        version: i32,
        prev_blockhash: Hash256,
        time: u32,
        nonce: u32,
        txs: Vec<Transaction>,
    ) -> Self {
        let header = BlockHeader {
            version,
            prev_blockhash,
            merkle_root: merkle_root_of(txs.len(), |i| txs[i].txid()),
            time,
            bits: 0x1d00ffff,
            nonce,
        };
        Block::from_parts(header, txs)
    }

    /// The block hash, computed when the block was built.
    pub fn block_hash(&self) -> Hash256 {
        self.0.hash
    }

    /// Whether the header's Merkle root matches the transactions.
    pub fn check_merkle_root(&self) -> bool {
        merkle_root_of(self.txs.len(), |i| self.txs[i].txid()) == self.header.merkle_root
    }

    /// Serialized size in bytes, computed without encoding.
    pub fn size(&self) -> usize {
        80 + crate::wire::varint_len(self.txs.len() as u64)
            + self.txs.iter().map(Transaction::size).sum::<usize>()
    }

    /// Txids of all transactions, in block order.
    pub fn txids(&self) -> Vec<Hash256> {
        self.txs.iter().map(Transaction::txid).collect()
    }
}

impl Deref for Block {
    type Target = BlockBody;

    fn deref(&self) -> &BlockBody {
        &self.0
    }
}

impl Encodable for Block {
    fn encode(&self, w: &mut Writer) {
        self.header.encode(w);
        w.varint(self.txs.len() as u64);
        for tx in &self.txs {
            tx.encode(w);
        }
    }
}

impl Decodable for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let header = BlockHeader::decode(r)?;
        let (n, mut txs) = r.list("block.txs", MAX_BLOCK_TXS, MIN_TX_BYTES)?;
        for _ in 0..n {
            txs.push(Transaction::decode(r)?);
        }
        Ok(Block::from_parts(header, txs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{OutPoint, TxIn, TxOut};
    use proptest::prelude::*;

    fn tx(tag: u8) -> Transaction {
        Transaction::new(
            vec![TxIn::new(
                OutPoint::new(Hash256::hash_of(&[tag]), 0),
                vec![tag],
            )],
            vec![TxOut::new(tag as u64 * 100, vec![0x51])],
        )
    }

    fn sample_block() -> Block {
        Block::assemble(
            0x2000_0000,
            Hash256::hash_of(b"prev"),
            1_600_000_000,
            42,
            vec![Transaction::coinbase(1, 625_000_000), tx(1), tx(2)],
        )
    }

    #[test]
    fn header_is_80_bytes() {
        assert_eq!(sample_block().header.encode_to_vec().len(), 80);
    }

    #[test]
    fn block_roundtrip() {
        let b = sample_block();
        let bytes = b.encode_to_vec();
        assert_eq!(Block::decode_exact(&bytes).unwrap(), b);
    }

    #[test]
    fn merkle_root_binds_transactions() {
        let b = sample_block();
        assert!(b.check_merkle_root());
        // A transaction cannot be edited in place; swap in a rebuilt one.
        let victim = &b.txs[1];
        let mut outputs = victim.outputs.clone();
        outputs[0].value += 1;
        let mut txs = b.txs.clone();
        txs[1] = Transaction::from_parts(
            victim.version,
            victim.inputs.clone(),
            outputs,
            victim.lock_time,
        );
        assert!(!Block::from_parts(b.header, txs).check_merkle_root());
    }

    #[test]
    fn merkle_single_tx_is_txid() {
        let t = tx(9);
        assert_eq!(merkle_root(&[t.txid()]), t.txid());
    }

    #[test]
    fn merkle_duplicates_odd_tail() {
        // Two-leaf root of (a, a) equals three-leaf root's right subtree
        // behavior: root(a, b, c) == parent(parent(a,b), parent(c,c)).
        let (a, b, c) = (
            Hash256::hash_of(b"a"),
            Hash256::hash_of(b"b"),
            Hash256::hash_of(b"c"),
        );
        let pair = |l: Hash256, r: Hash256| {
            let mut buf = [0u8; 64];
            buf[..32].copy_from_slice(l.as_bytes());
            buf[32..].copy_from_slice(r.as_bytes());
            Hash256::from_bytes(bitsync_crypto::sha256d(&buf))
        };
        assert_eq!(merkle_root(&[a, b, c]), pair(pair(a, b), pair(c, c)));
    }

    #[test]
    fn merkle_empty_is_zero() {
        assert_eq!(merkle_root(&[]), Hash256::ZERO);
    }

    /// The reference construction: a fresh `Vec` per level, every node
    /// through the streaming `sha256d`.
    fn naive_merkle_root(txids: &[Hash256]) -> Hash256 {
        let mut layer = txids.to_vec();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| {
                    let mut buf = [0u8; 64];
                    buf[..32].copy_from_slice(pair[0].as_bytes());
                    buf[32..].copy_from_slice(pair.get(1).unwrap_or(&pair[0]).as_bytes());
                    Hash256::from_bytes(bitsync_crypto::sha256d(&buf))
                })
                .collect();
        }
        layer[0]
    }

    proptest! {
        /// The in-place root equals the level-by-level one over 1 to 600
        /// leaves, odd levels included.
        #[test]
        fn merkle_root_matches_naive_levels(n in 1usize..601, salt in any::<u64>()) {
            let txids: Vec<Hash256> = (0..n as u64)
                .map(|i| Hash256::hash_of(&(salt ^ i).to_le_bytes()))
                .collect();
            prop_assert_eq!(merkle_root(&txids), naive_merkle_root(&txids));
        }
    }

    #[test]
    fn block_hash_depends_on_nonce() {
        let b = sample_block();
        let mut header = b.header;
        header.nonce += 1;
        let b2 = Block::from_parts(header, b.txs.clone());
        assert_ne!(b.block_hash(), b2.block_hash());
        assert_eq!(b2.block_hash(), header.block_hash());
    }

    #[test]
    fn txids_in_order() {
        let b = sample_block();
        let ids = b.txids();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], b.txs[0].txid());
        assert!(b.txs[0].is_coinbase());
    }
}
