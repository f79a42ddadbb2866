//! SipHash-2-4, the keyed hash Bitcoin Core uses to place addresses into
//! `addrman` buckets.
//!
//! This is a from-scratch implementation of the SipHash-2-4 PRF of
//! Aumasson and Bernstein, matching the reference test vectors. Bitcoin Core
//! keys it with a per-node random 256-bit `nKey` (two 64-bit halves here) so
//! that an attacker cannot predict which bucket an address lands in.

/// SipHash-2-4 keyed hasher over a byte stream.
///
/// # Examples
///
/// ```
/// use bitsync_crypto::siphash::SipHasher24;
///
/// let mut h = SipHasher24::new(0x0706050403020100, 0x0f0e0d0c0b0a0908);
/// h.write(&[0x00]);
/// assert_eq!(h.finish(), 0x74f839c593dc67fd);
/// ```
#[derive(Clone, Debug)]
pub struct SipHasher24 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Pending bytes not yet forming a full 8-byte word.
    tail: u64,
    /// Number of valid bytes in `tail` (0..8).
    ntail: usize,
    /// Total bytes written.
    length: usize,
}

#[inline]
fn sipround(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

impl SipHasher24 {
    /// Creates a hasher keyed with (`k0`, `k1`).
    pub fn new(k0: u64, k1: u64) -> Self {
        SipHasher24 {
            v0: k0 ^ 0x736f6d6570736575,
            v1: k1 ^ 0x646f72616e646f6d,
            v2: k0 ^ 0x6c7967656e657261,
            v3: k1 ^ 0x7465646279746573,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    /// Absorbs bytes into the hash state.
    pub fn write(&mut self, mut data: &[u8]) {
        self.length += data.len();
        if self.ntail > 0 {
            while self.ntail < 8 && !data.is_empty() {
                self.tail |= (data[0] as u64) << (8 * self.ntail);
                self.ntail += 1;
                data = &data[1..];
            }
            if self.ntail == 8 {
                self.compress(self.tail);
                self.tail = 0;
                self.ntail = 0;
            }
        }
        while data.len() >= 8 {
            let m = u64::from_le_bytes([
                data[0], data[1], data[2], data[3], data[4], data[5], data[6], data[7],
            ]);
            self.compress(m);
            data = &data[8..];
        }
        for (i, &b) in data.iter().enumerate() {
            self.tail |= (b as u64) << (8 * i);
        }
        self.ntail = data.len();
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Absorbs a single byte.
    pub fn write_u8(&mut self, x: u8) {
        self.write(&[x]);
    }

    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        self.v0 ^= m;
    }

    /// Finishes the hash, returning the 64-bit SipHash-2-4 value.
    pub fn finish(mut self) -> u64 {
        let b = ((self.length as u64 & 0xff) << 56) | self.tail;
        self.compress(b);
        self.v2 ^= 0xff;
        for _ in 0..4 {
            sipround(&mut self.v0, &mut self.v1, &mut self.v2, &mut self.v3);
        }
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

/// One-shot SipHash-2-4 of `data` under key (`k0`, `k1`).
///
/// # Examples
///
/// ```
/// let h = bitsync_crypto::siphash::siphash24(1, 2, b"bucket");
/// assert_ne!(h, bitsync_crypto::siphash::siphash24(1, 3, b"bucket"));
/// ```
pub fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    if let Ok(data) = data.try_into() {
        return siphash24_32(k0, k1, data);
    }
    let mut h = SipHasher24::new(k0, k1);
    h.write(data);
    h.finish()
}

/// SipHash-2-4 of exactly 32 bytes (a txid or block hash) under key (`k0`,
/// `k1`): [`siphash24`] with the length fixed, so the four message words
/// are read straight from `data` and no streaming state is kept.
///
/// # Examples
///
/// ```
/// use bitsync_crypto::siphash::{siphash24, siphash24_32};
///
/// let txid = [7u8; 32];
/// assert_eq!(siphash24_32(1, 2, &txid), siphash24(1, 2, &txid));
/// ```
pub fn siphash24_32(k0: u64, k1: u64, data: &[u8; 32]) -> u64 {
    let mut v0 = k0 ^ 0x736f6d6570736575;
    let mut v1 = k1 ^ 0x646f72616e646f6d;
    let mut v2 = k0 ^ 0x6c7967656e657261;
    let mut v3 = k1 ^ 0x7465646279746573;
    // 32 bytes are four whole words: nothing is left over.
    let (words, _) = data.as_chunks::<8>();
    // The four words, then the length block: 32 in the top byte, no tail.
    for m in words
        .iter()
        .map(|w| u64::from_le_bytes(*w))
        .chain([32 << 56])
    {
        v3 ^= m;
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        v0 ^= m;
    }
    v2 ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v0, &mut v1, &mut v2, &mut v3);
    }
    v0 ^ v1 ^ v2 ^ v3
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the SipHash paper (key 000102..0f, messages
    /// 00, 0001, 000102, ...).
    const VECTORS: [u64; 16] = [
        0x726fdb47dd0e0e31,
        0x74f839c593dc67fd,
        0x0d6c8009d9a94f5a,
        0x85676696d7fb7e2d,
        0xcf2794e0277187b7,
        0x18765564cd99a68d,
        0xcbc9466e58fee3ce,
        0xab0200f58b01d137,
        0x93f5f5799a932462,
        0x9e0082df0ba9e4b0,
        0x7a5dbbc594ddb9f3,
        0xf4b32f46226bada7,
        0x751e8fbc860ee5fb,
        0x14ea5627c0843d90,
        0xf723ca908e7af2ee,
        0xa129ca6149be45e5,
    ];

    fn test_key() -> (u64, u64) {
        (0x0706050403020100, 0x0f0e0d0c0b0a0908)
    }

    #[test]
    fn reference_vectors() {
        let (k0, k1) = test_key();
        let msg: Vec<u8> = (0..16u8).collect();
        for (len, expected) in VECTORS.iter().enumerate() {
            assert_eq!(siphash24(k0, k1, &msg[..len]), *expected, "len {len}");
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let (k0, k1) = test_key();
        let data: Vec<u8> = (0..=255u8).collect();
        for split in [0usize, 1, 7, 8, 9, 100, 255, 256] {
            let mut h = SipHasher24::new(k0, k1);
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), siphash24(k0, k1, &data), "split {split}");
        }
    }

    #[test]
    fn write_u64_matches_bytes() {
        let (k0, k1) = test_key();
        let mut a = SipHasher24::new(k0, k1);
        a.write_u64(0x0123456789abcdef);
        let mut b = SipHasher24::new(k0, k1);
        b.write(&0x0123456789abcdefu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn keyed_distinctness() {
        assert_ne!(siphash24(0, 0, b"x"), siphash24(0, 1, b"x"));
        assert_ne!(siphash24(0, 0, b"x"), siphash24(1, 0, b"x"));
    }

    /// The fixed-length path against the streaming one: the reference
    /// vectors' key and bytes, and the 32-byte prefixes of other inputs.
    #[test]
    fn thirty_two_bytes_match_the_stream() {
        let (k0, k1) = test_key();
        let data: Vec<u8> = (0..=255u8).collect();
        for start in [0usize, 1, 31, 100, 224] {
            let bytes: &[u8; 32] = data[start..start + 32].try_into().unwrap();
            let mut h = SipHasher24::new(k0, k1);
            h.write(bytes);
            let want = h.finish();
            assert_eq!(siphash24_32(k0, k1, bytes), want, "start {start}");
            assert_eq!(siphash24(k0, k1, bytes), want, "start {start}");
            assert_eq!(siphash24_32(!k1, k0, bytes), {
                let mut h = SipHasher24::new(!k1, k0);
                h.write(bytes);
                h.finish()
            });
        }
    }

    #[test]
    fn empty_message() {
        let (k0, k1) = test_key();
        assert_eq!(siphash24(k0, k1, b""), 0x726fdb47dd0e0e31);
    }
}
