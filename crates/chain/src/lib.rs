#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Walk order of an `IdMap` is reproducible, so output that came to depend on
// it would go unnoticed (see `bitsync_protocol::hash`).
#![warn(clippy::iter_over_hash_type)]

//! `bitsync-chain` — blockchain substrate for the `bitsync` simulation:
//! block-tree state with reorgs and header serving ([`state`]), a bounded
//! mempool with BIP 152 short-id matching ([`mempool`]), and Poisson block
//! production with a synthetic transaction workload ([`miner`]).
//!
//! # Examples
//!
//! ```
//! use bitsync_chain::{mempool::Mempool, miner::{Miner, TxGenerator}, state::ChainState};
//! use bitsync_sim::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut chain = ChainState::with_genesis();
//! let mut pool = Mempool::new(1000);
//! let mut gen = TxGenerator::new(1);
//! pool.insert(gen.next_tx(&mut rng));
//!
//! let mut miner = Miner::new(1, 100);
//! let block = miner.mine(chain.tip_hash(), 600, &pool, &mut rng);
//! chain.connect_block(&block)?;
//! pool.remove_confirmed(&block.txids());
//! assert_eq!(chain.height(), 1);
//! assert!(pool.is_empty());
//! # Ok::<(), bitsync_chain::state::ChainError>(())
//! ```

pub mod mempool;
pub mod miner;
pub mod state;

pub use mempool::Mempool;
pub use miner::{Miner, TxGenerator};
pub use state::{ChainError, ChainState, ReorgInfo};

#[cfg(test)]
mod proptests {
    use super::*;
    use bitsync_protocol::block::Block;
    use bitsync_protocol::tx::Transaction;
    use bitsync_sim::rng::SimRng;
    use proptest::prelude::*;

    proptest! {
        /// Connecting any sequence of valid linear blocks yields a chain
        /// whose height equals the number of blocks and whose locator walks
        /// back to genesis.
        #[test]
        fn linear_chain_invariants(n in 1u64..60) {
            let mut chain = ChainState::with_genesis();
            for i in 0..n {
                let b = Block::assemble(2, chain.tip_hash(), i as u32, 0,
                                        vec![Transaction::coinbase(i, 50)]);
                chain.connect_block(&b).unwrap();
            }
            prop_assert_eq!(chain.height(), n);
            let loc = chain.locator();
            prop_assert_eq!(loc[0], chain.tip_hash());
            prop_assert_eq!(*loc.last().unwrap(), chain.genesis_hash());
            // headers_after from a fresh chain serves everything.
            let fresh = ChainState::with_genesis();
            prop_assert_eq!(chain.headers_after(&fresh.locator(), 10_000).len() as u64, n);
        }

        /// Mempool: inserting then confirming an arbitrary subset leaves
        /// exactly the complement.
        #[test]
        fn mempool_confirm_complement(count in 1usize..40, mask in any::<u64>()) {
            let mut rng = SimRng::seed_from(99);
            let mut gen = TxGenerator::new(5);
            let mut pool = Mempool::new(1000);
            let txs: Vec<Transaction> = (0..count).map(|_| gen.next_tx(&mut rng)).collect();
            for t in &txs { pool.insert(t.clone()); }
            let confirmed: Vec<_> = txs.iter().enumerate()
                .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
                .map(|(_, t)| t.txid()).collect();
            pool.remove_confirmed(&confirmed);
            prop_assert_eq!(pool.len(), count - confirmed.len());
            for t in &txs {
                let id = t.txid();
                prop_assert_eq!(pool.contains(&id), !confirmed.contains(&id));
            }
        }

        /// Any insertion order of a random block tree agrees with a naive
        /// first-seen best-tip oracle: tip, height, and the `by_height`
        /// index (checked as `hash_at_height` along the winning tip's
        /// ancestor path, including after deep reorgs).
        #[test]
        fn block_tree_matches_naive_oracle(n in 1usize..40, seed in any::<u64>()) {
            use bitsync_protocol::hash::Hash256;
            use std::collections::HashMap;
            let mut rng = SimRng::seed_from(seed);
            let mut chain = ChainState::with_genesis();
            let genesis = chain.genesis_hash();
            // A random tree: each block's parent is any earlier block.
            let mut blocks: Vec<Block> = Vec::new();
            let mut hashes = vec![genesis];
            for i in 0..n {
                let parent = hashes[rng.index(hashes.len())];
                let b = Block::assemble(2, parent, i as u32, rng.next_u64() as u32,
                                        vec![Transaction::coinbase(i as u64, 50)]);
                hashes.push(b.block_hash());
                blocks.push(b);
            }
            // Connect in repeated shuffled passes, deferring orphans until
            // their parent lands, so deep out-of-order reorgs happen.
            let mut heights: HashMap<Hash256, u64> = HashMap::new();
            heights.insert(genesis, 0);
            let mut parent_of: HashMap<Hash256, Hash256> = HashMap::new();
            let mut oracle_tip = genesis;
            let mut pending = blocks;
            while !pending.is_empty() {
                for i in (1..pending.len()).rev() {
                    let j = rng.index(i + 1);
                    pending.swap(i, j);
                }
                let mut deferred = Vec::new();
                for b in pending {
                    let hash = b.block_hash();
                    match chain.connect_block(&b) {
                        Ok(info) => {
                            let height = heights[&b.header.prev_blockhash] + 1;
                            heights.insert(hash, height);
                            parent_of.insert(hash, b.header.prev_blockhash);
                            if height > heights[&oracle_tip] {
                                prop_assert!(info.is_some(), "oracle advanced, chain did not");
                                oracle_tip = hash;
                            } else {
                                prop_assert!(info.is_none(), "first-seen tie-break violated");
                            }
                        }
                        Err(ChainError::UnknownParent(_)) => deferred.push(b),
                        Err(e) => prop_assert!(false, "unexpected error {}", e),
                    }
                }
                pending = deferred;
            }
            prop_assert_eq!(chain.tip_hash(), oracle_tip);
            prop_assert_eq!(chain.height(), heights[&oracle_tip]);
            // The active-chain index is exactly the tip's ancestor path.
            let mut cur = oracle_tip;
            loop {
                let h = heights[&cur];
                prop_assert_eq!(chain.hash_at_height(h), Some(cur));
                if h == 0 { break; }
                cur = parent_of[&cur];
            }
            prop_assert!(chain.hash_at_height(chain.height() + 1).is_none());
        }

        /// A mined block always reconstructs completely from a mempool that
        /// holds all its non-coinbase transactions (the BIP 152 happy path).
        #[test]
        fn compact_roundtrip_from_full_mempool(n_txs in 0usize..20, seed in any::<u64>()) {
            use bitsync_protocol::compact::{reconstruct, CompactBlock, Reconstruction, ShortId};
            let mut rng = SimRng::seed_from(seed);
            let mut gen = TxGenerator::new(3);
            let mut pool = Mempool::new(1000);
            for _ in 0..n_txs { pool.insert(gen.next_tx(&mut rng)); }
            let mut miner = Miner::new(1, 1000);
            let block = miner.mine(bitsync_protocol::hash::Hash256::ZERO, 1, &pool, &mut rng);
            let cb = CompactBlock::from_block(&block, rng.next_u64());
            let index = pool.short_id_index(&cb.keys());
            let pooled = |sid: ShortId| index.get(&sid.to_u64()).and_then(|id| pool.get(id));
            match reconstruct(&cb, |sid| pooled(sid).cloned()) {
                Reconstruction::Complete(rb) => prop_assert_eq!(*rb, block),
                Reconstruction::Missing { indexes } =>
                    prop_assert!(false, "missing {indexes:?}"),
            }
        }
    }
}
