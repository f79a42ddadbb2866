//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! Bitcoin uses double-SHA-256 for block/transaction identifiers, for the
//! inner nodes of a block's Merkle tree and for the 4-byte checksum in its
//! wire-message framing. This module provides the streaming [`Sha256`]
//! hasher, the convenience functions [`sha256`] and [`sha256d`], and
//! [`sha256d64`], the fixed-shape Merkle-node hash.
//!
//! The implementation is deliberately dependency-free so that the whole
//! workspace builds without an external crypto crate. Every block goes
//! through one compression function, which picks its path per CPU: on an
//! x86-64 CPU with the SHA extensions (`sha`, with `sse4.1` and `ssse3`) it
//! runs the rounds as `sha256rnds2` instructions; anywhere else it runs the
//! portable rounds. The portable rounds are the reference the tests compare
//! the accelerated path against, block for block.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The padding block of a 64-byte message: the terminator, zeros and the
/// bit length 512.
const PAD_64: [u8; 64] = {
    let mut block = [0u8; 64];
    block[0] = 0x80;
    block[62] = 0x02;
    block
};

/// The single block of a 32-byte message, its first 32 bytes left for the
/// message: the terminator, zeros and the bit length 256.
const PAD_32: [u8; 64] = {
    let mut block = [0u8; 64];
    block[32] = 0x80;
    block[62] = 0x01;
    block
};

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use bitsync_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes so far.
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    /// Number of valid bytes in `buf`, always below 64.
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state. Whole 64-byte blocks of `data`
    /// are compressed where they lie; only a partial block is buffered.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // The 0x80 terminator and the zero fill; the 8-byte length goes in
        // this block's tail if it fits, else in one more block.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        digest_of(&self.state)
    }
}

/// The digest a final `state` stands for: its words, big-endian.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 of a 32-byte message: one compression of a fixed-shape block.
fn sha256_32(data: &Digest) -> Digest {
    let mut block = PAD_32;
    block[..32].copy_from_slice(data);
    let mut state = H0;
    compress(&mut state, &block);
    digest_of(&state)
}

/// The SHA-256 compression function: absorbs one 64-byte block into
/// `state`, on the SHA extensions where the CPU has them.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
        && std::arch::is_x86_feature_detected!("ssse3")
    {
        // SAFETY: `compress_shani` is compiled for `sha`, `sse4.1` and
        // `ssse3`; all three were detected on this CPU just above.
        unsafe { compress_shani(state, block) };
        return;
    }
    compress_soft(state, block);
}

/// The portable compression function: FIPS 180-4's 64 rounds on scalar
/// words. The only path on a CPU without the SHA extensions, and the
/// reference the accelerated path is tested against.
fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The compression function on the x86 SHA extensions.
///
/// The state lives in two vectors, `ABEF` and `CDGH`, the lane order
/// `sha256rnds2` works on; each instruction runs two rounds. The message
/// schedule is a ring of four vectors of four words: `sha256msg1` and
/// `sha256msg2` derive each next four words from the previous sixteen.
/// It may run only on a CPU with the three features it is compiled for;
/// [`compress`] detects them first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn compress_shani(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: the loads need only `sse2`, which every x86-64 CPU has. Each
    // reads 16 bytes, unaligned, at offset 0 or 16 of the 32-byte `state`
    // or at offset 0, 16, 32 or 48 of the 64-byte `block`.
    let (dcba, hgfe, mut w0, mut w1, mut w2, mut w3) = unsafe {
        let ptr = block.as_ptr();
        (
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state.as_ptr().add(4).cast()),
            _mm_shuffle_epi8(_mm_loadu_si128(ptr.cast()), be_words),
            _mm_shuffle_epi8(_mm_loadu_si128(ptr.add(16).cast()), be_words),
            _mm_shuffle_epi8(_mm_loadu_si128(ptr.add(32).cast()), be_words),
            _mm_shuffle_epi8(_mm_loadu_si128(ptr.add(48).cast()), be_words),
        )
    };
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
    let (abef_in, cdgh_in) = (abef, cdgh);

    // Rounds 4q..4q+4 read `w0`, words 4q..4q+4 of the schedule; the ring
    // then moves on by one vector. (The last four vectors it derives,
    // words 64..80, are never read.)
    for q in 0..16 {
        let k = _mm_set_epi32(
            K[4 * q + 3] as i32,
            K[4 * q + 2] as i32,
            K[4 * q + 1] as i32,
            K[4 * q] as i32,
        );
        let wk = _mm_add_epi32(w0, k);
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        let w9 = _mm_alignr_epi8::<4>(w3, w2);
        let w4 = _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), w9), w3);
        (w0, w1, w2, w3) = (w1, w2, w3, w4);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(_mm_add_epi32(abef, abef_in));
    let dchg = _mm_shuffle_epi32::<0xB1>(_mm_add_epi32(cdgh, cdgh_in));
    // SAFETY: the stores need only `sse2`, which every x86-64 CPU has. Each
    // writes 16 bytes, unaligned, at offset 0 or 16 of the 32-byte `state`.
    unsafe {
        _mm_storeu_si128(
            state.as_mut_ptr().cast(),
            _mm_blend_epi16::<0xF0>(feba, dchg),
        );
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8::<8>(dchg, feba),
        );
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Examples
///
/// ```
/// let d = bitsync_crypto::sha256::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes Bitcoin's double SHA-256: `SHA256(SHA256(data))`.
///
/// # Examples
///
/// ```
/// let d = bitsync_crypto::sha256::sha256d(b"hello");
/// assert_eq!(d.len(), 32);
/// ```
pub fn sha256d(data: &[u8]) -> Digest {
    sha256_32(&sha256(data))
}

/// [`sha256d`] of exactly 64 bytes — a Merkle tree's inner node, the hash
/// of its two children — in three compressions on stack blocks and no
/// streaming state (the shape of Bitcoin Core's `SHA256D64`).
///
/// # Examples
///
/// ```
/// use bitsync_crypto::sha256::{sha256d, sha256d64};
///
/// let pair = [7u8; 64];
/// assert_eq!(sha256d64(&pair), sha256d(&pair));
/// ```
pub fn sha256d64(data: &[u8; 64]) -> Digest {
    let mut state = H0;
    compress(&mut state, data);
    compress(&mut state, &PAD_64);
    sha256_32(&digest_of(&state))
}

/// Computes the 4-byte Bitcoin wire checksum: the first four bytes of the
/// double SHA-256 of the payload.
pub fn checksum4(data: &[u8]) -> [u8; 4] {
    let d = sha256d(data);
    [d[0], d[1], d[2], d[3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 5000, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn sha256d_known_vector() {
        // d-SHA256("hello") is a widely published vector.
        assert_eq!(
            hex(&sha256d(b"hello")),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
        );
    }

    #[test]
    fn checksum_of_empty_payload() {
        // Bitcoin's VERACK checksum: first 4 bytes of d-SHA256("").
        assert_eq!(checksum4(b""), [0x5d, 0xf6, 0xe0, 0xe2]);
    }

    #[test]
    fn length_counter_wraps_bytes_to_bits() {
        // Runs of `a` around the padding boundaries: 55 bytes is the longest
        // message whose length fits its last block, 56 and 63 push the
        // length into a block of its own, 64 pads a whole block, and 119 is
        // 55 past it. Digests from an independent implementation
        // (coreutils `sha256sum`).
        for (n, digest) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
        ] {
            assert_eq!(hex(&sha256(&vec![b'a'; n])), digest, "{n} bytes");
        }
    }

    proptest! {
        /// The dispatched compression function (the SHA extensions where
        /// this CPU has them) agrees with the portable rounds.
        #[test]
        fn compress_matches_compress_soft(
            words in proptest::collection::vec(any::<u32>(), 8..9),
            bytes in proptest::collection::vec(any::<u8>(), 64..65),
        ) {
            let state: [u32; 8] = words.try_into().unwrap();
            let block: [u8; 64] = bytes.try_into().unwrap();
            let (mut fast, mut soft) = (state, state);
            compress(&mut fast, &block);
            compress_soft(&mut soft, &block);
            prop_assert_eq!(fast, soft);
        }

        /// The fixed-shape Merkle-node hash is `sha256d` of its 64 bytes.
        #[test]
        fn sha256d64_matches_sha256d(bytes in proptest::collection::vec(any::<u8>(), 64..65)) {
            let data: [u8; 64] = bytes.try_into().unwrap();
            prop_assert_eq!(sha256d64(&data), sha256d(&data));
        }
    }
}
