//! Bitcoin wire-format primitives: little-endian integers, `CompactSize`
//! variable-length integers, and the [`Encodable`]/[`Decodable`] traits the
//! rest of the protocol types build on.

use std::fmt;

/// Error produced when decoding malformed wire bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// A `CompactSize` used a longer encoding than necessary.
    NonCanonicalVarInt,
    /// A length prefix exceeded the sanity limit.
    OversizedLength {
        /// What was being decoded.
        what: &'static str,
        /// The decoded length.
        len: u64,
        /// The maximum allowed.
        max: u64,
    },
    /// An enum discriminant or magic value was not recognized.
    InvalidValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The message checksum did not match the payload.
    BadChecksum,
    /// An unknown message command string.
    UnknownCommand(String),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { what } => {
                write!(f, "unexpected end of input while decoding {what}")
            }
            DecodeError::NonCanonicalVarInt => write!(f, "non-canonical CompactSize encoding"),
            DecodeError::OversizedLength { what, len, max } => {
                write!(f, "length {len} for {what} exceeds maximum {max}")
            }
            DecodeError::InvalidValue { what, value } => {
                write!(f, "invalid value {value} for {what}")
            }
            DecodeError::BadChecksum => write!(f, "message checksum mismatch"),
            DecodeError::UnknownCommand(cmd) => write!(f, "unknown command {cmd:?}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A byte reader over a wire payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads exactly `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16_le(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u16` (ports in `NetAddr` are big-endian).
    pub fn u16_be(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32_le(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64_le(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64_le(&mut self, what: &'static str) -> Result<i64, DecodeError> {
        Ok(self.u64_le(what)? as i64)
    }

    /// Reads a 32-byte array.
    pub fn array32(&mut self, what: &'static str) -> Result<[u8; 32], DecodeError> {
        let b = self.take(32, what)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(b);
        Ok(out)
    }

    /// Reads a canonical `CompactSize` varint.
    pub fn varint(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let first = self.u8(what)?;
        let value = match first {
            0x00..=0xfc => first as u64,
            0xfd => {
                let v = self.u16_le(what)? as u64;
                if v < 0xfd {
                    return Err(DecodeError::NonCanonicalVarInt);
                }
                v
            }
            0xfe => {
                let v = self.u32_le(what)? as u64;
                if v <= u16::MAX as u64 {
                    return Err(DecodeError::NonCanonicalVarInt);
                }
                v
            }
            0xff => {
                let v = self.u64_le(what)?;
                if v <= u32::MAX as u64 {
                    return Err(DecodeError::NonCanonicalVarInt);
                }
                v
            }
        };
        Ok(value)
    }

    /// Reads a `CompactSize` length prefix, rejecting values above `max`.
    pub fn length(&mut self, what: &'static str, max: u64) -> Result<usize, DecodeError> {
        let len = self.varint(what)?;
        if len > max {
            return Err(DecodeError::OversizedLength { what, len, max });
        }
        Ok(len as usize)
    }

    /// Reads a list count bounded by `max` and starts the list. What is
    /// reserved up front is bounded by the frame, not by the count it
    /// claims: an entry takes at least `entry_bytes`, so a five-byte frame
    /// announcing 2000 headers reserves nothing.
    pub fn list<T>(
        &mut self,
        what: &'static str,
        max: u64,
        entry_bytes: usize,
    ) -> Result<(usize, Vec<T>), DecodeError> {
        let n = self.length(what, max)?;
        Ok((n, Vec::with_capacity(n.min(self.remaining() / entry_bytes))))
    }
}

/// A growable byte writer for wire payloads.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16_le(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a big-endian `u16`.
    pub fn u16_be(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64_le(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a canonical `CompactSize` varint.
    pub fn varint(&mut self, v: u64) {
        match v {
            0..=0xfc => self.u8(v as u8),
            0xfd..=0xffff => {
                self.u8(0xfd);
                self.u16_le(v as u16);
            }
            0x1_0000..=0xffff_ffff => {
                self.u8(0xfe);
                self.u32_le(v as u32);
            }
            _ => {
                self.u8(0xff);
                self.u64_le(v);
            }
        }
    }
}

/// Serialized byte length of a `CompactSize` value.
pub fn varint_len(v: u64) -> usize {
    match v {
        0..=0xfc => 1,
        0xfd..=0xffff => 3,
        0x1_0000..=0xffff_ffff => 5,
        _ => 9,
    }
}

/// A type with a canonical Bitcoin wire encoding.
pub trait Encodable {
    /// Appends the wire encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// A type decodable from Bitcoin wire bytes.
pub trait Decodable: Sized {
    /// Decodes one value from the reader, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes a value that must consume the whole buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TrailingBytes`] if input remains after the
    /// value, in addition to all errors of [`Decodable::decode`].
    fn decode_exact(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(DecodeError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_varint(v: u64) -> u64 {
        let mut w = Writer::new();
        w.varint(v);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), varint_len(v));
        let mut r = Reader::new(&bytes);
        let out = r.varint("test").unwrap();
        assert!(r.is_exhausted());
        out
    }

    #[test]
    fn varint_roundtrips_at_boundaries() {
        for v in [
            0u64,
            1,
            0xfc,
            0xfd,
            0xffff,
            0x1_0000,
            0xffff_ffff,
            0x1_0000_0000,
            u64::MAX,
        ] {
            assert_eq!(roundtrip_varint(v), v);
        }
    }

    #[test]
    fn varint_rejects_non_canonical() {
        // 0xfd prefix encoding a value < 0xfd.
        let bytes = [0xfd, 0x10, 0x00];
        assert_eq!(
            Reader::new(&bytes).varint("t"),
            Err(DecodeError::NonCanonicalVarInt)
        );
        // 0xfe prefix encoding a value that fits u16.
        let bytes = [0xfe, 0xff, 0xff, 0x00, 0x00];
        assert_eq!(
            Reader::new(&bytes).varint("t"),
            Err(DecodeError::NonCanonicalVarInt)
        );
        // 0xff prefix encoding a value that fits u32.
        let bytes = [0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00];
        assert_eq!(
            Reader::new(&bytes).varint("t"),
            Err(DecodeError::NonCanonicalVarInt)
        );
    }

    #[test]
    fn varint_known_encodings() {
        let mut w = Writer::new();
        w.varint(515);
        assert_eq!(w.into_bytes(), vec![0xfd, 0x03, 0x02]);
    }

    #[test]
    fn reader_eof() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(
            r.u32_le("field"),
            Err(DecodeError::UnexpectedEof { what: "field" })
        );
    }

    #[test]
    fn reader_endianness() {
        let mut r = Reader::new(&[0x01, 0x02, 0x01, 0x02]);
        assert_eq!(r.u16_le("le").unwrap(), 0x0201);
        assert_eq!(r.u16_be("be").unwrap(), 0x0102);
    }

    #[test]
    fn length_enforces_max() {
        let mut w = Writer::new();
        w.varint(2000);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).length("addrs", 1000).unwrap_err();
        assert_eq!(
            err,
            DecodeError::OversizedLength {
                what: "addrs",
                len: 2000,
                max: 1000
            }
        );
    }

    #[test]
    fn list_reserves_no_more_than_the_frame_holds() {
        // 0xfd 0x00 0x10 = 4096 entries, then two bytes: not one 6-byte entry.
        let bytes = [0xfd, 0x00, 0x10, 0x00, 0x00];
        let mut r = Reader::new(&bytes);
        let (n, v) = r.list::<[u8; 6]>("short_ids", 1_000_000, 6).unwrap();
        assert_eq!((n, v.capacity()), (4096, 0));
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn primitive_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16_le(515);
        w.u32_le(0xdeadbeef);
        w.u64_le(u64::MAX - 1);
        w.i64_le(-42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16_le("b").unwrap(), 515);
        assert_eq!(r.u32_le("c").unwrap(), 0xdeadbeef);
        assert_eq!(r.u64_le("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.i64_le("e").unwrap(), -42);
        assert!(r.is_exhausted());
    }

    #[test]
    fn error_display_is_informative() {
        let e = DecodeError::UnknownCommand("bogus".into());
        assert!(e.to_string().contains("bogus"));
    }
}
