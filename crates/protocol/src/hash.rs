//! The 256-bit hash newtype used for block and transaction identifiers, and
//! inventory vectors (`INV`/`GETDATA` entries).

use crate::wire::{Decodable, DecodeError, Encodable, Reader, Writer};
use bitsync_crypto::sha256d;
use std::fmt;

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
}
