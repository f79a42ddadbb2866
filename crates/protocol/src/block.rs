//! Block headers, full blocks, and the Merkle root binding the two.

use crate::hash::Hash256;
use crate::tx::Transaction;
use crate::wire::{Decodable, DecodeError, Encodable, Reader, Writer};
use bitsync_crypto::sha256d;

/// Sanity bound on transactions per block when decoding.
const MAX_BLOCK_TXS: u64 = 1_000_000;

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
    if txids.is_empty() {
        return Hash256::ZERO;
    }
    let mut layer: Vec<Hash256> = txids.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            let left = pair[0];
            let right = *pair.get(1).unwrap_or(&left);
            let mut buf = [0u8; 64];
            buf[..32].copy_from_slice(left.as_bytes());
            buf[32..].copy_from_slice(right.as_bytes());
            next.push(Hash256::from_bytes(sha256d(&buf)));
        }
        layer = next;
    }
    layer[0]
}

/// A full block: header plus transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Transactions, coinbase first.
    pub txs: Vec<Transaction>,
}

impl Block {
    /// Assembles a block over `txs`, computing the Merkle root.
    pub fn assemble(
        version: i32,
        prev_blockhash: Hash256,
        time: u32,
        nonce: u32,
        txs: Vec<Transaction>,
    ) -> Self {
        let txids: Vec<Hash256> = txs.iter().map(Transaction::txid).collect();
        Block {
            header: BlockHeader {
                version,
                prev_blockhash,
                merkle_root: merkle_root(&txids),
                time,
                bits: 0x1d00ffff,
                nonce,
            },
            txs,
        }
    }

    /// The block hash.
    pub fn block_hash(&self) -> Hash256 {
        self.header.block_hash()
    }

    /// Whether the header's Merkle root matches the transactions.
    pub fn check_merkle_root(&self) -> bool {
        merkle_root(&self.txids()) == self.header.merkle_root
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
        let n = r.length("block.txs", MAX_BLOCK_TXS)?;
        let mut txs = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            txs.push(Transaction::decode(r)?);
        }
        Ok(Block { header, txs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{OutPoint, TxIn, TxOut};

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
        let mut tampered = b.clone();
        tampered.txs[1] = Transaction::from_parts(
            victim.version,
            victim.inputs.clone(),
            outputs,
            victim.lock_time,
        );
        assert!(!tampered.check_merkle_root());
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

    #[test]
    fn block_hash_depends_on_nonce() {
        let b = sample_block();
        let mut b2 = b.clone();
        b2.header.nonce += 1;
        assert_ne!(b.block_hash(), b2.block_hash());
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
