//! BIP 152 compact block relay structures.
//!
//! The paper (§IV-C) observes that transaction relay matters for
//! synchronization because of compact blocks: a node that is missing mempool
//! transactions must round-trip `GETBLOCKTXN`/`BLOCKTXN` before it can
//! reconstruct a block, so delayed transaction relay delays block
//! reconstruction.
//!
//! A [`CompactBlock`] carries the hash of the block it announces the way a
//! [`Block`] does (see [`crate::block`]): [`CompactBlock::from_block`]
//! copies the block's, decoding computes it once, and [`reconstruct`]
//! hands it on to the rebuilt block, so a block relayed compactly is still
//! hashed once per world. Short-id keys are *not* memoized — they depend
//! on the per-recipient nonce and are derived once per reconstruction.

use crate::block::{Block, BlockHeader};
use crate::hash::Hash256;
use crate::tx::{Transaction, MIN_TX_BYTES};
use crate::wire::{Decodable, DecodeError, Encodable, Reader, Writer};
use bitsync_crypto::{sha256_digest, siphash24_32};
use std::ops::Deref;

/// Sanity bound for list lengths in compact-block structures.
pub(crate) const MAX_CMPCT_ITEMS: u64 = 1_000_000;

/// Reads one BIP 152 differentially encoded index: a varint counting the
/// indexes skipped since `last` (`None` before the first entry). The
/// differential is an attacker-chosen `u64`, so the sum is checked; an
/// index must fit the `u32` the structures store it in (BIP 152 itself
/// stops at `u16::MAX`, below the [`MAX_CMPCT_ITEMS`] this codec accepts).
fn differential_index(
    r: &mut Reader<'_>,
    last: Option<u32>,
    what: &'static str,
) -> Result<u32, DecodeError> {
    let diff = r.varint(what)?;
    let next = last.map_or(0, |l| u64::from(l) + 1);
    next.checked_add(diff)
        .and_then(|index| u32::try_from(index).ok())
        .ok_or(DecodeError::InvalidValue { what, value: diff })
}

/// A 6-byte short transaction id (BIP 152).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShortId(pub [u8; 6]);

impl ShortId {
    /// The short id as a u64 (low 6 bytes significant).
    pub fn to_u64(self) -> u64 {
        let b = self.0;
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], 0, 0])
    }
}

/// SipHash keys derived from the block header and per-block nonce, used to
/// compute short ids (BIP 152 §"Short transaction IDs").
#[derive(Clone, Copy, Debug)]
pub struct ShortIdKeys {
    k0: u64,
    k1: u64,
}

impl ShortIdKeys {
    /// Derives keys as `SHA256(header || nonce)` split into two
    /// little-endian u64s.
    pub fn derive(header: &BlockHeader, nonce: u64) -> Self {
        let mut buf = [0u8; 88];
        buf[..80].copy_from_slice(&header.to_bytes());
        buf[80..].copy_from_slice(&nonce.to_le_bytes());
        let digest = sha256_digest(&buf);
        let k0 = u64::from_le_bytes(digest[0..8].try_into().expect("8 bytes"));
        let k1 = u64::from_le_bytes(digest[8..16].try_into().expect("8 bytes"));
        ShortIdKeys { k0, k1 }
    }

    /// Computes the 6-byte short id of `txid`.
    pub fn short_id(&self, txid: &Hash256) -> ShortId {
        let b = siphash24_32(self.k0, self.k1, &txid.0).to_le_bytes();
        ShortId([b[0], b[1], b[2], b[3], b[4], b[5]])
    }
}

/// A transaction sent in full inside a compact block (always at least the
/// coinbase), with its index differentially encoded on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefilledTx {
    /// Absolute index of the transaction within the block.
    pub index: u32,
    /// The transaction.
    pub tx: Transaction,
}

/// The contents of a [`CompactBlock`], readable through its `Deref`, plus
/// the hash of the announced block. As with [`crate::block::BlockBody`],
/// only the [`CompactBlock`] constructors build one and nothing hands out
/// a `&mut CompactBody`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactBody {
    /// Double-SHA-256 of `header`.
    hash: Hash256,
    /// The block header.
    pub header: BlockHeader,
    /// Per-block salt for short-id keying.
    pub nonce: u64,
    /// Short ids for all non-prefilled transactions, in block order.
    pub short_ids: Vec<ShortId>,
    /// Transactions sent in full (coinbase at minimum).
    pub prefilled: Vec<PrefilledTx>,
}

/// The `CMPCTBLOCK` message payload (BIP 152 `HeaderAndShortIDs`),
/// immutable once built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactBlock(CompactBody);

impl Deref for CompactBlock {
    type Target = CompactBody;

    fn deref(&self) -> &CompactBody {
        &self.0
    }
}

impl CompactBlock {
    /// Builds the compact form of `block`, prefilling only the coinbase.
    pub fn from_block(block: &Block, nonce: u64) -> Self {
        let keys = ShortIdKeys::derive(&block.header, nonce);
        let mut short_ids = Vec::with_capacity(block.txs.len().saturating_sub(1));
        let mut prefilled = Vec::with_capacity(1);
        for (i, tx) in block.txs.iter().enumerate() {
            if i == 0 {
                prefilled.push(PrefilledTx {
                    index: 0,
                    tx: tx.clone(),
                });
            } else {
                short_ids.push(keys.short_id(&tx.txid()));
            }
        }
        CompactBlock(CompactBody {
            hash: block.block_hash(),
            header: block.header,
            nonce,
            short_ids,
            prefilled,
        })
    }

    /// The hash of the announced block, computed when the announcement
    /// (or the block it was built from) was.
    pub fn block_hash(&self) -> Hash256 {
        self.0.hash
    }

    /// Total number of transactions in the announced block.
    pub fn tx_count(&self) -> usize {
        self.short_ids.len() + self.prefilled.len()
    }

    /// The short-id keys for this announcement.
    pub fn keys(&self) -> ShortIdKeys {
        ShortIdKeys::derive(&self.header, self.nonce)
    }

    /// Serialized size in bytes, computed without encoding.
    pub fn size(&self) -> usize {
        use crate::wire::varint_len;
        80 + 8
            + varint_len(self.short_ids.len() as u64)
            + 6 * self.short_ids.len()
            + varint_len(self.prefilled.len() as u64)
            + self
                .prefilled
                .iter()
                .map(|p| varint_len(p.index as u64) + p.tx.size())
                .sum::<usize>()
    }
}

impl Encodable for CompactBlock {
    fn encode(&self, w: &mut Writer) {
        self.header.encode(w);
        w.u64_le(self.nonce);
        w.varint(self.short_ids.len() as u64);
        for sid in &self.short_ids {
            w.bytes(&sid.0);
        }
        w.varint(self.prefilled.len() as u64);
        let mut last: i64 = -1;
        for p in &self.prefilled {
            // Differential index encoding per BIP 152.
            let diff = (p.index as i64 - last - 1) as u64;
            w.varint(diff);
            p.tx.encode(w);
            last = p.index as i64;
        }
    }
}

impl Decodable for CompactBlock {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let header = BlockHeader::decode(r)?;
        let nonce = r.u64_le("cmpct.nonce")?;
        let (n_short, mut short_ids) = r.list("cmpct.short_ids", MAX_CMPCT_ITEMS, 6)?;
        for _ in 0..n_short {
            let b = r.take(6, "cmpct.short_id")?;
            short_ids.push(ShortId([b[0], b[1], b[2], b[3], b[4], b[5]]));
        }
        // A one-byte index differential and a transaction.
        let (n_pre, mut prefilled) =
            r.list("cmpct.prefilled", MAX_CMPCT_ITEMS, 1 + MIN_TX_BYTES)?;
        for _ in 0..n_pre {
            let last = prefilled.last().map(|p: &PrefilledTx| p.index);
            let index = differential_index(r, last, "cmpct.prefilled_index")?;
            let tx = Transaction::decode(r)?;
            prefilled.push(PrefilledTx { index, tx });
        }
        Ok(CompactBlock(CompactBody {
            hash: header.block_hash(),
            header,
            nonce,
            short_ids,
            prefilled,
        }))
    }
}

/// The `GETBLOCKTXN` payload: indexes of transactions the receiver could not
/// reconstruct from its mempool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockTxnRequest {
    /// Which block.
    pub block_hash: Hash256,
    /// Absolute indexes of missing transactions (ascending).
    pub indexes: Vec<u32>,
}

impl Encodable for BlockTxnRequest {
    fn encode(&self, w: &mut Writer) {
        self.block_hash.encode(w);
        w.varint(self.indexes.len() as u64);
        let mut last: i64 = -1;
        for &i in &self.indexes {
            w.varint((i as i64 - last - 1) as u64);
            last = i as i64;
        }
    }
}

impl Decodable for BlockTxnRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let block_hash = Hash256::decode(r)?;
        let (n, mut indexes) = r.list("getblocktxn.indexes", MAX_CMPCT_ITEMS, 1)?;
        for _ in 0..n {
            let last = indexes.last().copied();
            indexes.push(differential_index(r, last, "getblocktxn.index")?);
        }
        Ok(BlockTxnRequest {
            block_hash,
            indexes,
        })
    }
}

/// The `BLOCKTXN` payload: the requested transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockTxn {
    /// Which block.
    pub block_hash: Hash256,
    /// The transactions, in request order.
    pub txs: Vec<Transaction>,
}

impl Encodable for BlockTxn {
    fn encode(&self, w: &mut Writer) {
        self.block_hash.encode(w);
        w.varint(self.txs.len() as u64);
        for tx in &self.txs {
            tx.encode(w);
        }
    }
}

impl Decodable for BlockTxn {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let block_hash = Hash256::decode(r)?;
        let (n, mut txs) = r.list("blocktxn.txs", MAX_CMPCT_ITEMS, MIN_TX_BYTES)?;
        for _ in 0..n {
            txs.push(Transaction::decode(r)?);
        }
        Ok(BlockTxn { block_hash, txs })
    }
}

/// Outcome of attempting to reconstruct a block from a [`CompactBlock`] and
/// a mempool lookup function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reconstruction {
    /// All transactions were available; the block is complete.
    Complete(Box<Block>),
    /// Some transactions are missing; a `GETBLOCKTXN` round-trip is needed.
    Missing {
        /// Absolute indexes that could not be filled.
        indexes: Vec<u32>,
    },
    /// The announcement cannot describe a block: a prefilled index lies
    /// past its last transaction (Core's `READ_STATUS_INVALID`). Only a
    /// hostile peer sends one.
    Invalid,
}

/// Attempts to reconstruct the full block from a compact announcement, using
/// `lookup` to resolve short ids to mempool transactions.
///
/// `lookup` receives the short id and must return the matching transaction
/// if the mempool has one. Any decodable announcement is safe to pass:
/// one that cannot describe a block is [`Reconstruction::Invalid`].
pub fn reconstruct(
    cb: &CompactBlock,
    mut lookup: impl FnMut(ShortId) -> Option<Transaction>,
) -> Reconstruction {
    let total = cb.tx_count();
    let mut slots: Vec<Option<Transaction>> = vec![None; total];
    for p in &cb.prefilled {
        // Decoding makes the indexes ascending, so only one past the end
        // can fail; a repeated index (a hand-built announcement) fails too.
        match slots.get_mut(p.index as usize) {
            Some(slot @ None) => *slot = Some(p.tx.clone()),
            _ => return Reconstruction::Invalid,
        }
    }
    // Every prefilled transaction took a slot of its own, so exactly one
    // short id is left per empty slot.
    for (slot, sid) in slots.iter_mut().filter(|s| s.is_none()).zip(&cb.short_ids) {
        *slot = lookup(*sid);
    }
    let missing: Vec<u32> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i as u32))
        .collect();
    if missing.is_empty() {
        let txs: Vec<Transaction> = slots.into_iter().map(|s| s.expect("checked")).collect();
        Reconstruction::Complete(Box::new(Block::with_hash(cb.block_hash(), cb.header, txs)))
    } else {
        Reconstruction::Missing { indexes: missing }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{OutPoint, TxIn, TxOut};
    use std::collections::HashMap;

    fn tx(tag: u8) -> Transaction {
        Transaction::new(
            vec![TxIn::new(
                OutPoint::new(Hash256::hash_of(&[tag]), 0),
                vec![tag],
            )],
            vec![TxOut::new(100 * tag as u64, vec![0x51])],
        )
    }

    fn block() -> Block {
        Block::assemble(
            2,
            Hash256::hash_of(b"prev"),
            1_600_000_000,
            1,
            vec![Transaction::coinbase(5, 50), tx(1), tx(2), tx(3)],
        )
    }

    #[test]
    fn compact_roundtrip() {
        let cb = CompactBlock::from_block(&block(), 0xabcdef);
        let bytes = cb.encode_to_vec();
        assert_eq!(CompactBlock::decode_exact(&bytes).unwrap(), cb);
    }

    #[test]
    fn short_ids_deterministic_per_nonce() {
        let b = block();
        let cb1 = CompactBlock::from_block(&b, 1);
        let cb2 = CompactBlock::from_block(&b, 1);
        let cb3 = CompactBlock::from_block(&b, 2);
        assert_eq!(cb1.short_ids, cb2.short_ids);
        assert_ne!(cb1.short_ids, cb3.short_ids);
    }

    #[test]
    fn reconstruct_complete_from_full_mempool() {
        let b = block();
        let cb = CompactBlock::from_block(&b, 7);
        let keys = cb.keys();
        let mempool: HashMap<u64, Transaction> = b.txs[1..]
            .iter()
            .map(|t| (keys.short_id(&t.txid()).to_u64(), t.clone()))
            .collect();
        match reconstruct(&cb, |sid| mempool.get(&sid.to_u64()).cloned()) {
            Reconstruction::Complete(rb) => {
                assert_eq!(*rb, b);
                assert!(rb.check_merkle_root());
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn reconstruct_reports_missing_indexes() {
        let b = block();
        let cb = CompactBlock::from_block(&b, 7);
        let keys = cb.keys();
        // Mempool has only tx index 2.
        let only = &b.txs[2];
        let only_sid = keys.short_id(&only.txid()).to_u64();
        match reconstruct(&cb, |sid| (sid.to_u64() == only_sid).then(|| only.clone())) {
            Reconstruction::Missing { indexes } => assert_eq!(indexes, vec![1, 3]),
            other => panic!("expected missing, got {other:?}"),
        }
    }

    /// One short id, a prefilled transaction at index 5 of a two-transaction
    /// block: decodable, and invalid rather than a panic.
    #[test]
    fn reconstruct_rejects_a_prefilled_index_past_the_block() {
        let mut payload = vec![0u8; 80 + 8];
        payload.extend_from_slice(&[0x01, 1, 2, 3, 4, 5, 6]);
        payload.extend_from_slice(&[0x01, 0x05]);
        payload.extend_from_slice(&Transaction::coinbase(1, 50).encode_to_vec());
        let cb = CompactBlock::decode_exact(&payload).unwrap();
        assert_eq!((cb.tx_count(), cb.prefilled[0].index), (2, 5));
        assert_eq!(reconstruct(&cb, |_| None), Reconstruction::Invalid);
        assert_eq!(reconstruct(&cb, |_| Some(tx(1))), Reconstruction::Invalid);
    }

    proptest::proptest! {
        /// Whatever decodes as a compact block reconstructs without a
        /// panic, with a mempool that knows nothing or everything. The
        /// bytes are a short-id list and a prefilled list with small index
        /// differentials (so indexes past the block are common), then a
        /// few random byte edits.
        #[test]
        fn reconstruct_never_panics_on_decoded_bytes(
            n_short in 0u8..4,
            diffs in proptest::collection::vec(0u8..6, 0..4),
            edits in proptest::collection::vec((proptest::prelude::any::<u64>(), proptest::prelude::any::<u8>()), 0..3),
        ) {
            let mut bytes = vec![0u8; 80 + 8];
            bytes.push(n_short);
            for i in 0..n_short {
                bytes.extend_from_slice(&[i; 6]);
            }
            bytes.push(diffs.len() as u8);
            for &diff in &diffs {
                bytes.push(diff);
                bytes.extend_from_slice(&tx(diff + 1).encode_to_vec());
            }
            for (at, byte) in edits {
                let at = (at % bytes.len() as u64) as usize;
                bytes[at] = byte;
            }
            if let Ok(cb) = CompactBlock::decode_exact(&bytes) {
                let _ = reconstruct(&cb, |_| None);
                let _ = reconstruct(&cb, |_| Some(tx(9)));
            }
        }
    }

    #[test]
    fn blocktxn_request_roundtrip() {
        let req = BlockTxnRequest {
            block_hash: Hash256::hash_of(b"b"),
            indexes: vec![1, 3, 10, 11],
        };
        let bytes = req.encode_to_vec();
        assert_eq!(BlockTxnRequest::decode_exact(&bytes).unwrap(), req);
    }

    /// `0xff` + 8 bytes: a 9-byte varint carrying `value`.
    fn varint9(value: u64) -> Vec<u8> {
        [&[0xff][..], &value.to_le_bytes()].concat()
    }

    #[test]
    fn getblocktxn_rejects_overflowing_differentials() {
        // Second index = 0 + 1 + i64::MAX: overflowed the old signed sum.
        let mut ascending_then_huge = vec![0u8; 32];
        ascending_then_huge.extend_from_slice(&[0x02, 0x00]);
        ascending_then_huge.extend_from_slice(&varint9(i64::MAX as u64));
        // One differential of u64::MAX: wrapped to index 4294967295.
        let mut wraps_negative = vec![0u8; 32];
        wraps_negative.push(0x01);
        wraps_negative.extend_from_slice(&varint9(u64::MAX));
        for payload in [ascending_then_huge, wraps_negative] {
            assert!(matches!(
                BlockTxnRequest::decode_exact(&payload),
                Err(DecodeError::InvalidValue {
                    what: "getblocktxn.index",
                    ..
                })
            ));
        }
    }

    #[test]
    fn cmpctblock_rejects_overflowing_prefilled_differentials() {
        let coinbase = Transaction::coinbase(1, 50).encode_to_vec();
        for (count, diffs) in [
            (0x02, vec![vec![0x00], varint9(i64::MAX as u64)]),
            (0x01, vec![varint9(u64::MAX)]),
        ] {
            // Header and nonce zeroed, no short ids, then the prefilled list.
            let mut payload = vec![0u8; 80 + 8];
            payload.extend_from_slice(&[0x00, count]);
            for diff in diffs {
                payload.extend_from_slice(&diff);
                payload.extend_from_slice(&coinbase);
            }
            assert!(matches!(
                CompactBlock::decode_exact(&payload),
                Err(DecodeError::InvalidValue {
                    what: "cmpct.prefilled_index",
                    ..
                })
            ));
        }
    }

    #[test]
    fn differential_indexes_reach_the_top_of_the_u32_range() {
        let req = BlockTxnRequest {
            block_hash: Hash256::hash_of(b"b"),
            indexes: vec![0, u32::MAX - 1, u32::MAX],
        };
        let bytes = req.encode_to_vec();
        assert_eq!(BlockTxnRequest::decode_exact(&bytes).unwrap(), req);
    }

    #[test]
    fn blocktxn_roundtrip() {
        let bt = BlockTxn {
            block_hash: Hash256::hash_of(b"b"),
            txs: vec![tx(1), tx(2)],
        };
        let bytes = bt.encode_to_vec();
        assert_eq!(BlockTxn::decode_exact(&bytes).unwrap(), bt);
    }

    #[test]
    fn tx_count_includes_prefilled() {
        let cb = CompactBlock::from_block(&block(), 1);
        assert_eq!(cb.tx_count(), 4);
        assert_eq!(cb.prefilled.len(), 1);
        assert_eq!(cb.short_ids.len(), 3);
    }

    #[test]
    fn short_id_is_six_bytes_of_siphash() {
        let b = block();
        let keys = ShortIdKeys::derive(&b.header, 9);
        let txid = b.txs[1].txid();
        let sid = keys.short_id(&txid);
        assert!(sid.to_u64() < (1u64 << 48));
    }
}
