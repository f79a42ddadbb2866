#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Dependency-free cryptographic primitives for the `bitsync` workspace.
//!
//! The Bitcoin protocol depends on two hash functions that this crate
//! implements from scratch:
//!
//! - [`sha256`]: SHA-256 and Bitcoin's double-SHA-256 (block and transaction
//!   identifiers, Merkle tree nodes, wire-message checksums).
//! - [`siphash`]: SipHash-2-4, the keyed PRF Bitcoin Core uses to randomize
//!   `addrman` bucket placement.
//!
//! # Examples
//!
//! ```
//! use bitsync_crypto::{sha256d, siphash24};
//!
//! let txid = sha256d(b"some transaction bytes");
//! let bucket = siphash24(0xdead, 0xbeef, &txid) % 1024;
//! assert!(bucket < 1024);
//! ```
//!
//! # Which SHA-256 compression runs where
//!
//! Every SHA-256 block goes through one compression function that picks
//! its path at run time. On an x86-64 CPU that reports the SHA extensions
//! (`sha`, together with `sse4.1` and `ssse3`) it runs the rounds as
//! `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions. On every other
//! CPU and architecture it runs the portable FIPS 180-4 rounds. Both give
//! the same digest bit for bit; the portable rounds are the reference the
//! tests compare the accelerated path against. The crate's only
//! `unsafe` code is that path's detected-feature call and its vector loads
//! and stores, in [`sha256`].

pub mod sha256;
pub mod siphash;

pub use sha256::{checksum4, sha256 as sha256_digest, sha256d, sha256d64, Digest, Sha256};
pub use siphash::{siphash24, SipHasher24};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Streaming and one-shot SHA-256 agree for arbitrary chunkings.
        #[test]
        fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                     cut in 0usize..2048) {
            let cut = cut.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            prop_assert_eq!(h.finalize(), sha256::sha256(&data));
        }

        /// SHA-256 output differs whenever a single byte is flipped.
        #[test]
        fn sha256_avalanche(mut data in proptest::collection::vec(any::<u8>(), 1..512),
                            idx in 0usize..512, bit in 0u8..8) {
            let idx = idx % data.len();
            let original = sha256::sha256(&data);
            data[idx] ^= 1 << bit;
            prop_assert_ne!(sha256::sha256(&data), original);
        }

        /// SipHash streaming and one-shot agree for arbitrary chunkings.
        #[test]
        fn siphash_chunking_invariant(k0 in any::<u64>(), k1 in any::<u64>(),
                                      data in proptest::collection::vec(any::<u8>(), 0..512),
                                      cut in 0usize..512) {
            let cut = cut.min(data.len());
            let mut h = SipHasher24::new(k0, k1);
            h.write(&data[..cut]);
            h.write(&data[cut..]);
            prop_assert_eq!(h.finish(), siphash24(k0, k1, &data));
        }

        /// SipHash distributes values roughly uniformly over small moduli:
        /// sequential inputs should not all collapse into one residue class.
        #[test]
        fn siphash_spreads_sequential_inputs(k0 in any::<u64>(), k1 in any::<u64>()) {
            let mut seen = std::collections::HashSet::new();
            for i in 0u64..64 {
                seen.insert(siphash24(k0, k1, &i.to_le_bytes()) % 16);
            }
            prop_assert!(seen.len() >= 8, "only {} residues hit", seen.len());
        }
    }
}
