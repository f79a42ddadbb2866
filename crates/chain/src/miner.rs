//! Block production: a Poisson-process miner and a synthetic transaction
//! workload generator.
//!
//! The Bitcoin network mines one block per ~600 s in expectation; the
//! relay-delay experiments (Figures 10/11) drive the instrumented node with
//! this arrival process plus a realistic transaction stream (~3 tx/s).

use crate::mempool::Mempool;
use bitsync_protocol::block::Block;
use bitsync_protocol::hash::Hash256;
use bitsync_protocol::tx::{OutPoint, Transaction, TxIn, TxOut};
use bitsync_sim::rng::SimRng;

/// Block subsidy at the paper's measurement period (post-2020 halving).
pub const BLOCK_SUBSIDY: u64 = 625_000_000;

/// Generates synthetic transactions with unique identifiers and realistic
/// size spread.
///
/// # Examples
///
/// ```
/// use bitsync_chain::miner::TxGenerator;
/// use bitsync_sim::rng::SimRng;
///
/// let mut gen = TxGenerator::new(7);
/// let mut rng = SimRng::seed_from(1);
/// let a = gen.next_tx(&mut rng);
/// let b = gen.next_tx(&mut rng);
/// assert_ne!(a.txid(), b.txid());
/// ```
#[derive(Clone, Debug)]
pub struct TxGenerator {
    /// Generator namespace so independent generators never collide.
    namespace: u64,
    counter: u64,
}

impl TxGenerator {
    /// Creates a generator in the given id namespace.
    pub fn new(namespace: u64) -> Self {
        TxGenerator {
            namespace,
            counter: 0,
        }
    }

    /// Produces the next unique transaction. Sizes vary with the number of
    /// inputs/outputs drawn (1–3 in, 1–2 out).
    pub fn next_tx(&mut self, rng: &mut SimRng) -> Transaction {
        self.counter += 1;
        let uniq =
            Hash256::hash_of(&[self.namespace.to_le_bytes(), self.counter.to_le_bytes()].concat());
        let n_in = 1 + rng.index(3);
        let n_out = 1 + rng.index(2);
        let inputs = (0..n_in)
            .map(|i| {
                TxIn::new(
                    OutPoint::new(uniq, i as u32),
                    vec![0xab; 64 + rng.index(48)], // signature-ish filler
                )
            })
            .collect();
        let outputs = (0..n_out)
            .map(|_| TxOut::new(1_000 + rng.below(1_000_000), vec![0x76; 25]))
            .collect();
        Transaction::new(inputs, outputs)
    }
}

/// Assembles blocks from a mempool on top of a given tip.
#[derive(Clone, Debug)]
pub struct Miner {
    /// Maximum transactions per block template.
    pub max_block_txs: usize,
    /// Coinbase tag namespace (unique per miner).
    namespace: u64,
    mined: u64,
}

impl Miner {
    /// Creates a miner; `namespace` makes its coinbases unique.
    pub fn new(namespace: u64, max_block_txs: usize) -> Self {
        Miner {
            max_block_txs: max_block_txs.max(1),
            namespace,
            mined: 0,
        }
    }

    /// Mines a block on `prev` at wall-clock `time`, taking transactions
    /// from the mempool (which is left untouched — the caller removes
    /// confirmed transactions when it connects the block).
    pub fn mine(&mut self, prev: Hash256, time: u32, mempool: &Mempool, rng: &mut SimRng) -> Block {
        self.mined += 1;
        let coinbase_tag = self
            .namespace
            .wrapping_mul(1_000_000_007)
            .wrapping_add(self.mined);
        let mut txs = vec![Transaction::coinbase(coinbase_tag, BLOCK_SUBSIDY)];
        txs.extend(mempool.select_for_block(self.max_block_txs.saturating_sub(1)));
        Block::assemble(0x2000_0000, prev, time, rng.next_u64() as u32, txs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txgen_unique_across_calls_and_namespaces() {
        let mut rng = SimRng::seed_from(1);
        let mut g1 = TxGenerator::new(1);
        let mut g2 = TxGenerator::new(2);
        let a = g1.next_tx(&mut rng);
        let b = g1.next_tx(&mut rng);
        let mut rng2 = SimRng::seed_from(1);
        let c = g2.next_tx(&mut rng2);
        assert_ne!(a.txid(), b.txid());
        assert_ne!(a.txid(), c.txid());
    }

    #[test]
    fn tx_sizes_are_realistic() {
        let mut rng = SimRng::seed_from(2);
        let mut g = TxGenerator::new(1);
        for _ in 0..50 {
            let size = g.next_tx(&mut rng).size();
            assert!(size > 100 && size < 1200, "size {size}");
        }
    }

    #[test]
    fn mined_block_commits_mempool_txs() {
        let mut rng = SimRng::seed_from(3);
        let mut g = TxGenerator::new(1);
        let mut pool = Mempool::new(100);
        for _ in 0..5 {
            pool.insert(g.next_tx(&mut rng));
        }
        let mut miner = Miner::new(9, 100);
        let block = miner.mine(Hash256::ZERO, 1, &pool, &mut rng);
        assert_eq!(block.txs.len(), 6);
        assert!(block.txs[0].is_coinbase());
        assert!(block.check_merkle_root());
    }

    #[test]
    fn block_respects_max_txs() {
        let mut rng = SimRng::seed_from(4);
        let mut g = TxGenerator::new(1);
        let mut pool = Mempool::new(100);
        for _ in 0..50 {
            pool.insert(g.next_tx(&mut rng));
        }
        let mut miner = Miner::new(9, 10);
        let block = miner.mine(Hash256::ZERO, 1, &pool, &mut rng);
        assert_eq!(block.txs.len(), 10);
    }

    #[test]
    fn coinbases_unique_across_blocks_and_miners() {
        let mut rng = SimRng::seed_from(5);
        let pool = Mempool::new(10);
        let mut m1 = Miner::new(1, 10);
        let mut m2 = Miner::new(2, 10);
        let a = m1.mine(Hash256::ZERO, 1, &pool, &mut rng);
        let b = m1.mine(Hash256::ZERO, 1, &pool, &mut rng);
        let c = m2.mine(Hash256::ZERO, 1, &pool, &mut rng);
        assert_ne!(a.txs[0].txid(), b.txs[0].txid());
        assert_ne!(a.txs[0].txid(), c.txs[0].txid());
    }
}
