//! The 256-bit hash newtype used for block and transaction identifiers,
//! inventory vectors (`INV`/`GETDATA` entries), and the table hasher for
//! everything keyed by an identifier.
//!
//! An identifier is hashed once: a [`Hash256`] is a SHA-256d output, and
//! the simulator assigns every [`crate::addr::NetAddr`], node id and AS
//! number itself, so no table key is chosen by an adversary and none needs
//! the keyed SipHash `std`'s `RandomState` runs over it. [`IdMap`] and
//! [`IdSet`] are `std`'s tables over [`IdHasher`], one unkeyed function of
//! the words a derived `Hash` impl feeds it. Being unkeyed it also makes a
//! table's walk order the same in every process — which is why the world
//! crates turn on `clippy::iter_over_hash_type`: a walk that reached
//! output would not flake, it would be silently pinned to this function.

use crate::wire::{Decodable, DecodeError, Encodable, Reader, Writer};
use bitsync_crypto::sha256d;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by an identifier (see [`IdHasher`]).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of identifiers (see [`IdHasher`]).
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// The one table hasher: a folded multiply per 64-bit word, and once more
/// to finish.
///
/// The 128-bit product of the running state and an odd constant is folded
/// onto itself (high half XOR low half), so every input bit reaches both
/// ends of the result: `hashbrown` picks a bucket with the low bits and
/// tags it with the top seven, and keys that differ only in their last
/// bytes (or are consecutive small integers) must spread over both.
///
/// Not for keys an adversary picks: the function has no key.
///
/// # Examples
///
/// ```
/// use bitsync_protocol::hash::{Hash256, IdMap};
///
/// let mut heights: IdMap<Hash256, u64> = IdMap::default();
/// heights.insert(Hash256::hash_of(b"genesis"), 0);
/// assert_eq!(heights[&Hash256::hash_of(b"genesis")], 0);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn word(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0xf135_7aea_2e62_a9c5;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.word(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut last = *self;
        last.word(0);
        last.0
    }
}

/// A 256-bit identifier (block hash or txid), stored in wire byte order
/// (little-endian display convention: reversed when printed, like Bitcoin).
///
/// # Examples
///
/// ```
/// use bitsync_protocol::hash::Hash256;
///
/// let h = Hash256::hash_of(b"payload");
/// assert_ne!(h, Hash256::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash (genesis `prev` pointer, null outpoint).
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Double-SHA-256 of `data`.
    pub fn hash_of(data: &[u8]) -> Self {
        Hash256(sha256d(data))
    }

    /// Constructs from raw bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }

    /// The raw bytes in wire order.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Whether this is the all-zero hash.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({self})")
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Bitcoin convention: hex of the byte-reversed hash.
        for b in self.0.iter().rev() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl Encodable for Hash256 {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.0);
    }
}

impl Decodable for Hash256 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Hash256(r.array32("hash256")?))
    }
}

/// The kind of object an inventory vector refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvType {
    /// A transaction (`MSG_TX`).
    Tx,
    /// A full block (`MSG_BLOCK`).
    Block,
    /// A compact block announcement (`MSG_CMPCT_BLOCK`).
    CompactBlock,
}

impl InvType {
    /// Wire discriminant.
    pub fn to_u32(self) -> u32 {
        match self {
            InvType::Tx => 1,
            InvType::Block => 2,
            InvType::CompactBlock => 4,
        }
    }

    /// Parses the wire discriminant.
    pub fn from_u32(v: u32) -> Result<Self, DecodeError> {
        match v {
            1 => Ok(InvType::Tx),
            2 => Ok(InvType::Block),
            4 => Ok(InvType::CompactBlock),
            other => Err(DecodeError::InvalidValue {
                what: "inv type",
                value: other as u64,
            }),
        }
    }
}

/// An inventory vector: a typed object announcement in `INV`/`GETDATA`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InvVect {
    /// Object kind.
    pub kind: InvType,
    /// Object identifier.
    pub hash: Hash256,
}

impl InvVect {
    /// Announces a transaction.
    pub fn tx(hash: Hash256) -> Self {
        InvVect {
            kind: InvType::Tx,
            hash,
        }
    }

    /// Announces a block.
    pub fn block(hash: Hash256) -> Self {
        InvVect {
            kind: InvType::Block,
            hash,
        }
    }
}

impl Encodable for InvVect {
    fn encode(&self, w: &mut Writer) {
        w.u32_le(self.kind.to_u32());
        self.hash.encode(w);
    }
}

impl Decodable for InvVect {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let kind = InvType::from_u32(r.u32_le("inv.type")?)?;
        let hash = Hash256::decode(r)?;
        Ok(InvVect { kind, hash })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn display_is_reversed_hex() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0xab;
        bytes[31] = 0x01;
        let h = Hash256::from_bytes(bytes);
        let s = h.to_string();
        assert!(s.starts_with("01"));
        assert!(s.ends_with("ab"));
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn hash_of_is_sha256d() {
        assert_eq!(Hash256::hash_of(b"x").0, bitsync_crypto::sha256d(b"x"));
    }

    #[test]
    fn zero_detection() {
        assert!(Hash256::ZERO.is_zero());
        assert!(!Hash256::hash_of(b"").is_zero());
    }

    #[test]
    fn invvect_roundtrip() {
        for iv in [
            InvVect::tx(Hash256::hash_of(b"t")),
            InvVect::block(Hash256::hash_of(b"b")),
            InvVect {
                kind: InvType::CompactBlock,
                hash: Hash256::hash_of(b"c"),
            },
        ] {
            let bytes = iv.encode_to_vec();
            assert_eq!(bytes.len(), 36);
            assert_eq!(InvVect::decode_exact(&bytes).unwrap(), iv);
        }
    }

    #[test]
    fn invtype_rejects_unknown() {
        assert!(InvType::from_u32(99).is_err());
    }

    /// Stand-in for `bitsync_node::peer::NodeId`: the same derived `Hash`.
    #[derive(Hash)]
    struct NodeId(u32);

    fn id_hash(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn id_hasher_is_one_fixed_function() {
        // No key, no per-process state: these are the values in every
        // process and from every `IdHasher::default()`.
        assert_eq!(id_hash(NodeId(7)), 0xe026_52a2_d84e_375f);
        assert_eq!(id_hash((3320u32, 24940u32)), 0x2cca_ca0d_d7ee_770e);
        assert_eq!(id_hash(Hash256([0x11; 32])), 0xc6f4_116b_e8a0_3a94);
    }

    /// Distinct low-12-bit values (where `hashbrown` picks the bucket) as
    /// a fraction of what 4096 uniformly random hashes would fill, and
    /// distinct top-7-bit values (its control-byte tag).
    fn spread<K: Hash>(keys: impl Iterator<Item = K>) -> (f64, usize) {
        let hashes: Vec<u64> = keys.map(id_hash).collect();
        assert_eq!(hashes.len(), 4096);
        let distinct =
            |f: fn(u64) -> u64| hashes.iter().map(|&h| f(h)).collect::<HashSet<_>>().len();
        let random_fill = 4096.0 * (1.0 - (-1.0f64).exp());
        (
            distinct(|h| h & 0xfff) as f64 / random_fill,
            distinct(|h| h >> 57),
        )
    }

    #[test]
    fn id_hasher_spreads_structured_keys_over_buckets_and_tags() {
        // Hashes that agree except in their last two bytes — the case a
        // pass-through of the first word puts in one bucket.
        let tail_only = (0..4096u16).map(|i| {
            let mut bytes = [0x5a; 32];
            bytes[30..].copy_from_slice(&i.to_le_bytes());
            Hash256(bytes)
        });
        let as_pairs = (0..4096u32).map(|i| (3320 + i / 64, 24940 + i % 64));
        for (what, (fill, tags)) in [
            ("consecutive node ids", spread((0..4096).map(NodeId))),
            ("consecutive AS pairs", spread(as_pairs)),
            ("hashes differing in the tail", spread(tail_only)),
        ] {
            assert!(fill >= 0.9, "{what}: {fill:.2} of a random fill");
            assert_eq!(tags, 128, "{what}");
        }
    }
}
