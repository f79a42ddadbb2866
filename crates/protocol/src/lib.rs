#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `bitsync-protocol` — the Bitcoin P2P wire protocol, reimplemented from
//! scratch for the `bitsync` network simulation.
//!
//! Modules:
//!
//! - [`wire`]: little-endian primitives, `CompactSize` varints, and the
//!   [`wire::Encodable`]/[`wire::Decodable`] traits.
//! - [`addr`]: [`addr::NetAddr`] and the timestamped `ADDR` entry format —
//!   the currency of the paper's addressing-protocol analysis (§IV-B).
//! - [`hash`]: [`hash::Hash256`] identifiers and `INV` vectors.
//! - [`tx`] / [`block`]: transactions, headers, blocks and Merkle roots.
//! - [`compact`]: BIP 152 compact-block relay, whose dependence on timely
//!   transaction relay motivates the paper's Figure 11.
//! - [`message`]: the [`message::Message`] enum — the 17 messages a
//!   simulated Core 0.20 node sends; any other command is
//!   [`wire::DecodeError::UnknownCommand`] — and the
//!   `magic|command|length|checksum` framing.
//!
//! Decoders return `Err` on hostile bytes and never panic.
//!
//! # Examples
//!
//! ```
//! use bitsync_protocol::message::{Message, MAGIC_MAINNET};
//!
//! let framed = Message::GetAddr.encode_framed(MAGIC_MAINNET);
//! let (decoded, consumed) = Message::decode_framed(&framed, MAGIC_MAINNET)?;
//! assert_eq!(decoded, Message::GetAddr);
//! assert_eq!(consumed, framed.len());
//! # Ok::<(), bitsync_protocol::wire::DecodeError>(())
//! ```

pub mod addr;
pub mod block;
pub mod compact;
pub mod hash;
pub mod message;
pub mod tx;
pub mod wire;

pub use addr::{NetAddr, TimestampedAddr, DEFAULT_PORT};
pub use block::{Block, BlockHeader};
pub use hash::{Hash256, InvType, InvVect};
pub use message::{Message, VersionMsg, MAGIC_MAINNET, MAX_ADDR_PER_MSG, PROTOCOL_VERSION};
pub use tx::Transaction;
pub use wire::{Decodable, DecodeError, Encodable};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::tx::{OutPoint, TxIn, TxOut};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn arb_netaddr() -> impl Strategy<Value = NetAddr> {
        (any::<u64>(), any::<[u8; 4]>(), any::<u16>()).prop_map(|(services, ip, port)| NetAddr {
            services,
            ip: Ipv4Addr::from(ip).to_ipv6_mapped(),
            port,
        })
    }

    fn arb_tx() -> impl Strategy<Value = Transaction> {
        (
            proptest::collection::vec(
                (
                    any::<[u8; 32]>(),
                    any::<u32>(),
                    proptest::collection::vec(any::<u8>(), 0..64),
                ),
                0..4,
            ),
            proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)),
                0..4,
            ),
            any::<u32>(),
        )
            .prop_map(|(ins, outs, lock_time)| {
                Transaction::from_parts(
                    2,
                    ins.into_iter()
                        .map(|(h, v, s)| TxIn {
                            previous_output: OutPoint::new(Hash256::from_bytes(h), v),
                            script_sig: s,
                            sequence: u32::MAX,
                        })
                        .collect(),
                    outs.into_iter()
                        .map(|(value, script_pubkey)| TxOut {
                            value,
                            script_pubkey,
                        })
                        .collect(),
                    lock_time,
                )
            })
    }

    proptest! {
        /// NetAddr wire encoding round-trips for arbitrary contents.
        #[test]
        fn netaddr_roundtrip(a in arb_netaddr()) {
            let bytes = a.encode_to_vec();
            prop_assert_eq!(NetAddr::decode_exact(&bytes).unwrap(), a);
        }

        /// The construction-time txid is the hash of the serialization, and
        /// transactions round-trip with their txid.
        #[test]
        fn tx_roundtrip(tx in arb_tx()) {
            let bytes = tx.encode_to_vec();
            prop_assert_eq!(tx.txid(), Hash256::hash_of(&bytes));
            let back = Transaction::decode_exact(&bytes).unwrap();
            prop_assert_eq!(back.txid(), tx.txid());
            prop_assert_eq!(back, tx);
        }

        /// Every way to build a block or a compact block leaves the hash it
        /// carries equal to its header's.
        #[test]
        fn carried_block_hash_is_the_headers(
            n_txs in 0u64..6,
            nonce in any::<u32>(),
            salt in any::<u64>(),
        ) {
            use crate::compact::{reconstruct, CompactBlock, Reconstruction};
            let txs: Vec<Transaction> = (0..n_txs).map(|i| Transaction::coinbase(i, 50)).collect();
            let assembled = Block::assemble(2, Hash256::hash_of(b"prev"), 1, nonce, txs.clone());
            let mut header = assembled.header;
            header.nonce = !nonce;
            let from_parts = Block::from_parts(header, txs);
            let decoded = Block::decode_exact(&assembled.encode_to_vec()).unwrap();
            let cb = CompactBlock::from_block(&from_parts, salt);
            let cb_decoded = CompactBlock::decode_exact(&cb.encode_to_vec()).unwrap();
            let keys = cb_decoded.keys();
            let pooled = |sid| from_parts.txs.iter().find(|t| keys.short_id(&t.txid()) == sid);
            let Reconstruction::Complete(rebuilt) = reconstruct(&cb_decoded, |sid| pooled(sid).cloned())
            else {
                panic!("every transaction is at hand");
            };
            prop_assert_ne!(assembled.block_hash(), from_parts.block_hash());
            for (carried, header) in [
                (assembled.block_hash(), assembled.header),
                (from_parts.block_hash(), from_parts.header),
                (decoded.block_hash(), decoded.header),
                (cb.block_hash(), cb.header),
                (cb_decoded.block_hash(), cb_decoded.header),
                (rebuilt.block_hash(), rebuilt.header),
            ] {
                prop_assert_eq!(carried, header.block_hash());
            }
            prop_assert_eq!(*rebuilt, from_parts);
        }

        /// ADDR messages round-trip through framing for arbitrary entry sets
        /// up to the protocol limit.
        #[test]
        fn addr_message_roundtrip(entries in proptest::collection::vec((any::<u32>(), arb_netaddr()), 0..50)) {
            let msg = Message::Addr(entries.into_iter().map(|(t, a)| TimestampedAddr::new(t, a)).collect());
            let framed = msg.encode_framed(MAGIC_MAINNET);
            let (back, n) = Message::decode_framed(&framed, MAGIC_MAINNET).unwrap();
            prop_assert_eq!(back, msg);
            prop_assert_eq!(n, framed.len());
        }

        /// Any single-byte corruption of a framed message is detected (bad
        /// magic, bad checksum, bad length, or payload mismatch) — decoding
        /// never silently yields a different message.
        #[test]
        fn framing_detects_corruption(idx in 0usize..64, flip in 1u8..=255) {
            let msg = Message::Ping(0x1234_5678_9abc_def0);
            let mut framed = msg.encode_framed(MAGIC_MAINNET);
            let idx = idx % framed.len();
            framed[idx] ^= flip;
            if let Ok((decoded, _)) = Message::decode_framed(&framed, MAGIC_MAINNET) { prop_assert_eq!(decoded, msg.clone()) }
            // Restore and confirm it still decodes.
            framed[idx] ^= flip;
            prop_assert!(Message::decode_framed(&framed, MAGIC_MAINNET).is_ok());
        }
    }
}
