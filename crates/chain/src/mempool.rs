//! The transaction memory pool.
//!
//! Compact-block reconstruction (BIP 152, paper §IV-C) succeeds only when
//! the receiving node's mempool already holds the block's transactions, so
//! mempool contents directly gate block-level synchronization.

use bitsync_protocol::compact::ShortIdKeys;
use bitsync_protocol::hash::{table_bytes, Hash256, IdMap};
use bitsync_protocol::tx::Transaction;
use std::collections::VecDeque;

/// A size-bounded transaction pool with txid lookup and short-id matching.
///
/// # Examples
///
/// ```
/// use bitsync_chain::mempool::Mempool;
/// use bitsync_protocol::tx::Transaction;
///
/// let mut pool = Mempool::new(1000);
/// let tx = Transaction::coinbase(1, 50);
/// let txid = tx.txid();
/// pool.insert(tx);
/// assert!(pool.contains(&txid));
/// ```
#[derive(Clone, Debug)]
pub struct Mempool {
    txs: IdMap<Hash256, Transaction>,
    /// Insertion order for FIFO eviction; may hold ids [`Mempool::remove`]
    /// already took out of `txs`.
    order: VecDeque<Hash256>,
    max_txs: usize,
    /// Total inserted ever (for stats).
    inserted: u64,
    /// Total evicted by the size bound.
    evicted: u64,
}

impl Mempool {
    /// Creates a pool bounded to `max_txs` transactions.
    pub fn new(max_txs: usize) -> Self {
        Mempool {
            txs: IdMap::default(),
            order: VecDeque::new(),
            max_txs: max_txs.max(1),
            inserted: 0,
            evicted: 0,
        }
    }

    /// Number of transactions currently pooled.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Whether a txid is pooled.
    pub fn contains(&self, txid: &Hash256) -> bool {
        self.txs.contains_key(txid)
    }

    /// Fetches a pooled transaction.
    pub fn get(&self, txid: &Hash256) -> Option<&Transaction> {
        self.txs.get(txid)
    }

    /// Inserts a transaction; returns `false` if it was already present.
    /// Oldest entries are evicted when the bound is exceeded.
    pub fn insert(&mut self, tx: Transaction) -> bool {
        let txid = tx.txid();
        if self.txs.contains_key(&txid) {
            return false;
        }
        self.txs.insert(txid, tx);
        self.order.push_back(txid);
        self.inserted += 1;
        while self.txs.len() > self.max_txs {
            // order may contain already-removed ids; skip those.
            let victim = self
                .order
                .pop_front()
                .expect("every pooled transaction has an order entry");
            if self.txs.remove(&victim).is_some() {
                self.evicted += 1;
            }
        }
        true
    }

    /// Removes a transaction (e.g. when a block confirms it).
    pub fn remove(&mut self, txid: &Hash256) -> Option<Transaction> {
        self.txs.remove(txid)
    }

    /// Removes every transaction confirmed by `txids` (block connect).
    /// Returns how many were present.
    pub fn remove_confirmed(&mut self, txids: &[Hash256]) -> usize {
        let mut n = 0;
        for t in txids {
            if self.txs.remove(t).is_some() {
                n += 1;
            }
        }
        if n > 0 {
            self.order.retain(|id| self.txs.contains_key(id));
        }
        n
    }

    /// Builds the per-block short-id → txid index Bitcoin Core constructs
    /// for compact-block reconstruction: one SipHash per pooled
    /// transaction, then O(1) lookups.
    pub fn short_id_index(&self, keys: &ShortIdKeys) -> IdMap<u64, Hash256> {
        self.txs
            .keys()
            .map(|txid| (keys.short_id(txid).to_u64(), *txid))
            .collect()
    }

    /// Up to `max` transactions for a block template, in insertion order.
    pub fn select_for_block(&self, max: usize) -> Vec<Transaction> {
        self.order
            .iter()
            .filter_map(|id| self.txs.get(id))
            .take(max)
            .cloned()
            .collect()
    }

    /// Lifetime (inserted, evicted) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.inserted, self.evicted)
    }

    /// Bytes the pool allocates: the txid table ([`table_bytes`]) and the
    /// eviction order. A transaction body is shared with the world and not
    /// counted.
    pub fn footprint(&self) -> usize {
        table_bytes(self.txs.capacity(), size_of::<(Hash256, Transaction)>())
            + self.order.capacity() * size_of::<Hash256>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsync_protocol::block::Block;

    fn tx(tag: u64) -> Transaction {
        Transaction::coinbase(tag, 50)
    }

    #[test]
    fn insert_and_lookup() {
        let mut p = Mempool::new(10);
        let t = tx(1);
        let id = t.txid();
        assert!(p.insert(t.clone()));
        assert!(!p.insert(t)); // duplicate
        assert_eq!(p.get(&id).unwrap().txid(), id);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn eviction_is_fifo() {
        let mut p = Mempool::new(3);
        let ids: Vec<Hash256> = (0..5)
            .map(|i| {
                let t = tx(i);
                let id = t.txid();
                p.insert(t);
                id
            })
            .collect();
        assert_eq!(p.len(), 3);
        assert!(!p.contains(&ids[0]));
        assert!(!p.contains(&ids[1]));
        assert!(p.contains(&ids[4]));
        assert_eq!(p.stats(), (5, 2));
    }

    #[test]
    fn eviction_skips_stale_order_entries() {
        let mut p = Mempool::new(4);
        let ids: Vec<Hash256> = (0..4)
            .map(|i| {
                p.insert(tx(i));
                tx(i).txid()
            })
            .collect();
        // Leave stale ids at the front and in the middle of the order.
        assert!(p.remove(&ids[0]).is_some());
        assert!(p.remove(&ids[2]).is_some());
        // Two free slots: no eviction yet.
        p.insert(tx(4));
        p.insert(tx(5));
        assert_eq!(p.stats(), (6, 0));
        // Over capacity: the oldest *live* entries go first (1, then 3),
        // and the stale ids are dropped without counting as evictions.
        p.insert(tx(6));
        assert!(!p.contains(&ids[1]));
        assert!(p.contains(&ids[3]));
        assert_eq!(p.stats(), (7, 1));
        p.insert(tx(7));
        assert!(!p.contains(&ids[3]));
        assert_eq!(p.len(), 4);
        assert_eq!(p.stats(), (8, 2));
        let left: Vec<Hash256> = p.select_for_block(10).iter().map(|t| t.txid()).collect();
        let want: Vec<Hash256> = (4..8).map(|i| tx(i).txid()).collect();
        assert_eq!(left, want);
    }

    #[test]
    fn remove_confirmed_clears_block_txs() {
        let mut p = Mempool::new(100);
        let txs: Vec<Transaction> = (0..4).map(tx).collect();
        for t in &txs {
            p.insert(t.clone());
        }
        let confirmed: Vec<Hash256> = txs[..2].iter().map(Transaction::txid).collect();
        assert_eq!(p.remove_confirmed(&confirmed), 2);
        assert_eq!(p.len(), 2);
        assert!(!p.contains(&confirmed[0]));
    }

    #[test]
    fn short_id_lookup_finds_tx() {
        let mut p = Mempool::new(100);
        let t = tx(42);
        p.insert(t.clone());
        p.insert(tx(43));
        let block = Block::assemble(2, Hash256::ZERO, 0, 0, vec![tx(0)]);
        let keys = ShortIdKeys::derive(&block.header, 99);
        let index = p.short_id_index(&keys);
        assert_eq!(index.len(), 2);
        let sid = keys.short_id(&t.txid());
        assert_eq!(index.get(&sid.to_u64()), Some(&t.txid()));
    }

    #[test]
    fn select_for_block_preserves_order_and_max() {
        let mut p = Mempool::new(100);
        for i in 0..10 {
            p.insert(tx(i));
        }
        let sel = p.select_for_block(4);
        assert_eq!(sel.len(), 4);
        assert_eq!(sel[0].txid(), tx(0).txid());
        assert_eq!(sel[3].txid(), tx(3).txid());
    }

    #[test]
    fn select_skips_removed() {
        let mut p = Mempool::new(100);
        for i in 0..4 {
            p.insert(tx(i));
        }
        p.remove(&tx(0).txid());
        let sel = p.select_for_block(10);
        assert_eq!(sel.len(), 3);
        assert_eq!(sel[0].txid(), tx(1).txid());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut p = Mempool::new(0);
        p.insert(tx(1));
        assert_eq!(p.len(), 1);
        p.insert(tx(2));
        assert_eq!(p.len(), 1);
    }
}
