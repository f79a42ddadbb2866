//! The Bitcoin P2P message set and the 24-byte wire framing
//! (`magic | command | length | checksum`).

use crate::addr::{NetAddr, TimestampedAddr};
use crate::block::{Block, BlockHeader};
use crate::compact::{BlockTxn, BlockTxnRequest, CompactBlock};
use crate::hash::{Hash256, InvVect};
use crate::tx::Transaction;
use crate::wire::{Decodable, DecodeError, Encodable, Reader, Writer};
use bitsync_crypto::checksum4;

/// Mainnet network magic.
pub const MAGIC_MAINNET: [u8; 4] = [0xf9, 0xbe, 0xb4, 0xd9];
/// The protocol version our simulated nodes speak (Bitcoin Core 0.20.x).
pub const PROTOCOL_VERSION: i32 = 70015;
/// Maximum addresses in one `ADDR` message.
pub const MAX_ADDR_PER_MSG: usize = 1000;
/// Maximum inventory entries in one `INV`/`GETDATA`.
pub const MAX_INV_PER_MSG: usize = 50_000;
/// Maximum headers per `HEADERS` message.
pub const MAX_HEADERS_PER_MSG: usize = 2000;
/// Maximum locator hashes in `GETHEADERS`.
const MAX_LOCATOR: u64 = 101;

/// The `VERSION` handshake payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionMsg {
    /// Highest protocol version the sender speaks.
    pub version: i32,
    /// Sender's service bits.
    pub services: u64,
    /// Sender's UNIX time.
    pub timestamp: i64,
    /// The receiving endpoint as the sender sees it.
    pub addr_recv: NetAddr,
    /// The sender's own endpoint.
    pub addr_from: NetAddr,
    /// Random connection nonce (self-connection detection).
    pub nonce: u64,
    /// Free-form user agent.
    pub user_agent: String,
    /// Sender's best block height.
    pub start_height: i32,
    /// Whether the sender wants full tx relay.
    pub relay: bool,
}

impl Encodable for VersionMsg {
    fn encode(&self, w: &mut Writer) {
        w.u32_le(self.version as u32);
        w.u64_le(self.services);
        w.i64_le(self.timestamp);
        self.addr_recv.encode(w);
        self.addr_from.encode(w);
        w.u64_le(self.nonce);
        w.varint(self.user_agent.len() as u64);
        w.bytes(self.user_agent.as_bytes());
        w.u32_le(self.start_height as u32);
        w.u8(self.relay as u8);
    }
}

impl Decodable for VersionMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let version = r.u32_le("version.version")? as i32;
        let services = r.u64_le("version.services")?;
        let timestamp = r.i64_le("version.timestamp")?;
        let addr_recv = NetAddr::decode(r)?;
        let addr_from = NetAddr::decode(r)?;
        let nonce = r.u64_le("version.nonce")?;
        let ua_len = r.length("version.user_agent", 256)?;
        let ua_bytes = r.take(ua_len, "version.user_agent")?;
        // Not lossy: replacement characters are three bytes each, so a
        // repaired string could outgrow the limit it was just held to.
        let user_agent =
            String::from_utf8(ua_bytes.to_vec()).map_err(|e| DecodeError::InvalidValue {
                what: "version.user_agent",
                value: e.utf8_error().valid_up_to() as u64,
            })?;
        let start_height = r.u32_le("version.start_height")? as i32;
        let relay = r.u8("version.relay")? != 0;
        Ok(VersionMsg {
            version,
            services,
            timestamp,
            addr_recv,
            addr_from,
            nonce,
            user_agent,
            start_height,
            relay,
        })
    }
}

/// The `SENDCMPCT` payload (BIP 152).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendCmpct {
    /// High-bandwidth mode flag.
    pub announce: bool,
    /// Compact block protocol version (1 here; 2 is segwit).
    pub version: u64,
}

/// The `GETHEADERS` payload (block locator + stop hash).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetHeaders {
    /// Locator hashes, newest first.
    pub locator: Vec<Hash256>,
    /// Hash to stop at (zero = as many as fit).
    pub stop: Hash256,
}

/// A P2P message, the unit moved between simulated peers.
///
/// Messages move by value through the world's event queue and every peer's
/// send and process queues, so the enum is kept to 32 bytes: a payload
/// larger than a `Vec` is boxed. Those are the rare ones — `Block` and
/// `CmpctBlock` once per block and peer, `Version` twice per connection,
/// `GetHeaders` once per outbound connection or orphan, `GetBlockTxn` and
/// `BlockTxn` once per compact-block miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Initiates the handshake.
    Version(Box<VersionMsg>),
    /// Acknowledges a `Version`.
    Verack,
    /// Requests addresses from the peer's addrman.
    GetAddr,
    /// Advertises known addresses.
    Addr(Vec<TimestampedAddr>),
    /// Keepalive probe.
    Ping(u64),
    /// Keepalive reply.
    Pong(u64),
    /// Announces inventory (txs/blocks).
    Inv(Vec<InvVect>),
    /// Requests announced inventory.
    GetData(Vec<InvVect>),
    /// Announces unavailable inventory.
    NotFound(Vec<InvVect>),
    /// A full transaction.
    Tx(Transaction),
    /// A full block.
    Block(Box<Block>),
    /// Requests headers for initial sync.
    GetHeaders(Box<GetHeaders>),
    /// Headers response.
    Headers(Vec<BlockHeader>),
    /// Negotiates compact-block relay.
    SendCmpct(SendCmpct),
    /// A compact block announcement.
    CmpctBlock(Box<CompactBlock>),
    /// Requests missing transactions of a compact block.
    GetBlockTxn(Box<BlockTxnRequest>),
    /// The missing transactions.
    BlockTxn(Box<BlockTxn>),
}

// A variant that embeds a struct instead of boxing it copies its bytes on
// every queue move of every message: fail the build instead.
const _: () = assert!(std::mem::size_of::<Message>() <= 32);

impl Message {
    /// The 12-byte ASCII command name for the framing header.
    pub fn command(&self) -> &'static str {
        match self {
            Message::Version(_) => "version",
            Message::Verack => "verack",
            Message::GetAddr => "getaddr",
            Message::Addr(_) => "addr",
            Message::Ping(_) => "ping",
            Message::Pong(_) => "pong",
            Message::Inv(_) => "inv",
            Message::GetData(_) => "getdata",
            Message::NotFound(_) => "notfound",
            Message::Tx(_) => "tx",
            Message::Block(_) => "block",
            Message::GetHeaders(_) => "getheaders",
            Message::Headers(_) => "headers",
            Message::SendCmpct(_) => "sendcmpct",
            Message::CmpctBlock(_) => "cmpctblock",
            Message::GetBlockTxn(_) => "getblocktxn",
            Message::BlockTxn(_) => "blocktxn",
        }
    }

    /// Encodes just the payload (no framing header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Message::Version(v) => v.encode(&mut w),
            Message::Verack | Message::GetAddr => {}
            Message::Addr(addrs) => {
                w.varint(addrs.len() as u64);
                for a in addrs {
                    a.encode(&mut w);
                }
            }
            Message::Ping(n) | Message::Pong(n) => w.u64_le(*n),
            Message::Inv(items) | Message::GetData(items) | Message::NotFound(items) => {
                w.varint(items.len() as u64);
                for i in items {
                    i.encode(&mut w);
                }
            }
            Message::Tx(tx) => tx.encode(&mut w),
            Message::Block(b) => b.encode(&mut w),
            Message::GetHeaders(g) => {
                w.u32_le(PROTOCOL_VERSION as u32);
                w.varint(g.locator.len() as u64);
                for h in &g.locator {
                    h.encode(&mut w);
                }
                g.stop.encode(&mut w);
            }
            Message::Headers(headers) => {
                w.varint(headers.len() as u64);
                for h in headers {
                    h.encode(&mut w);
                    w.varint(0); // tx count, always 0 in headers messages
                }
            }
            Message::SendCmpct(s) => {
                w.u8(s.announce as u8);
                w.u64_le(s.version);
            }
            Message::CmpctBlock(cb) => cb.encode(&mut w),
            Message::GetBlockTxn(req) => req.encode(&mut w),
            Message::BlockTxn(bt) => bt.encode(&mut w),
        }
        w.into_bytes()
    }

    /// Decodes a payload for the given command name.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnknownCommand`] for unrecognized commands and
    /// the usual decode errors for malformed payloads.
    pub fn decode_payload(command: &str, payload: &[u8]) -> Result<Message, DecodeError> {
        let mut r = Reader::new(payload);
        let msg = match command {
            "version" => Message::Version(Box::new(VersionMsg::decode(&mut r)?)),
            "verack" => Message::Verack,
            "getaddr" => Message::GetAddr,
            "addr" => {
                let (n, mut addrs) = r.list("addr.count", MAX_ADDR_PER_MSG as u64, 30)?;
                for _ in 0..n {
                    addrs.push(TimestampedAddr::decode(&mut r)?);
                }
                Message::Addr(addrs)
            }
            "ping" => Message::Ping(r.u64_le("ping.nonce")?),
            "pong" => Message::Pong(r.u64_le("pong.nonce")?),
            "inv" | "getdata" | "notfound" => {
                let (n, mut items) = r.list("inv.count", MAX_INV_PER_MSG as u64, 36)?;
                for _ in 0..n {
                    items.push(InvVect::decode(&mut r)?);
                }
                match command {
                    "inv" => Message::Inv(items),
                    "getdata" => Message::GetData(items),
                    _ => Message::NotFound(items),
                }
            }
            "tx" => Message::Tx(Transaction::decode(&mut r)?),
            "block" => Message::Block(Box::new(Block::decode(&mut r)?)),
            "getheaders" => {
                let _version = r.u32_le("getheaders.version")?;
                let (n, mut locator) = r.list("getheaders.locator", MAX_LOCATOR, 32)?;
                for _ in 0..n {
                    locator.push(Hash256::decode(&mut r)?);
                }
                let stop = Hash256::decode(&mut r)?;
                Message::GetHeaders(Box::new(GetHeaders { locator, stop }))
            }
            "headers" => {
                // 80 header bytes and at least one for the transaction count.
                let (n, mut headers) = r.list("headers.count", MAX_HEADERS_PER_MSG as u64, 81)?;
                for _ in 0..n {
                    headers.push(BlockHeader::decode(&mut r)?);
                    let _txn = r.varint("headers.txcount")?;
                }
                Message::Headers(headers)
            }
            "sendcmpct" => Message::SendCmpct(SendCmpct {
                announce: r.u8("sendcmpct.announce")? != 0,
                version: r.u64_le("sendcmpct.version")?,
            }),
            "cmpctblock" => Message::CmpctBlock(Box::new(CompactBlock::decode(&mut r)?)),
            "getblocktxn" => Message::GetBlockTxn(Box::new(BlockTxnRequest::decode(&mut r)?)),
            "blocktxn" => Message::BlockTxn(Box::new(BlockTxn::decode(&mut r)?)),
            other => return Err(DecodeError::UnknownCommand(other.to_string())),
        };
        if !r.is_exhausted() {
            return Err(DecodeError::TrailingBytes(r.remaining()));
        }
        Ok(msg)
    }

    /// Serializes the full framed message: 24-byte header plus payload.
    pub fn encode_framed(&self, magic: [u8; 4]) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(24 + payload.len());
        out.extend_from_slice(&magic);
        let mut cmd = [0u8; 12];
        let name = self.command().as_bytes();
        cmd[..name.len()].copy_from_slice(name);
        out.extend_from_slice(&cmd);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum4(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Parses a framed message, verifying magic and checksum.
    ///
    /// Returns the message and the total number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Fails on wrong magic, bad checksum, truncation, or unknown command.
    pub fn decode_framed(buf: &[u8], magic: [u8; 4]) -> Result<(Message, usize), DecodeError> {
        if buf.len() < 24 {
            return Err(DecodeError::UnexpectedEof {
                what: "frame header",
            });
        }
        if buf[0..4] != magic {
            return Err(DecodeError::InvalidValue {
                what: "network magic",
                value: u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as u64,
            });
        }
        let cmd_end = buf[4..16].iter().position(|&b| b == 0).unwrap_or(12);
        let command = std::str::from_utf8(&buf[4..4 + cmd_end])
            .map_err(|_| DecodeError::UnknownCommand("<non-utf8>".into()))?
            .to_string();
        let len = u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]) as usize;
        if buf.len() < 24 + len {
            return Err(DecodeError::UnexpectedEof {
                what: "frame payload",
            });
        }
        let payload = &buf[24..24 + len];
        let expected: [u8; 4] = [buf[20], buf[21], buf[22], buf[23]];
        if checksum4(payload) != expected {
            return Err(DecodeError::BadChecksum);
        }
        let msg = Message::decode_payload(&command, payload)?;
        Ok((msg, 24 + len))
    }

    /// The serialized wire size of this message including framing,
    /// computed analytically so the simulator's bandwidth model never has
    /// to re-encode large payloads.
    pub fn wire_size(&self) -> usize {
        use crate::wire::varint_len;
        let payload = match self {
            Message::Version(v) => {
                4 + 8
                    + 8
                    + 26
                    + 26
                    + 8
                    + varint_len(v.user_agent.len() as u64)
                    + v.user_agent.len()
                    + 4
                    + 1
            }
            Message::Verack | Message::GetAddr => 0,
            Message::Addr(addrs) => varint_len(addrs.len() as u64) + 30 * addrs.len(),
            Message::Ping(_) | Message::Pong(_) => 8,
            Message::Inv(items) | Message::GetData(items) | Message::NotFound(items) => {
                varint_len(items.len() as u64) + 36 * items.len()
            }
            Message::Tx(tx) => tx.size(),
            Message::Block(b) => b.size(),
            Message::GetHeaders(g) => {
                4 + varint_len(g.locator.len() as u64) + 32 * g.locator.len() + 32
            }
            Message::Headers(headers) => varint_len(headers.len() as u64) + 81 * headers.len(),
            Message::SendCmpct(_) => 9,
            Message::CmpctBlock(cb) => cb.size(),
            Message::GetBlockTxn(req) => {
                // Differential index encoding: conservatively assume one
                // varint byte per small gap plus exact first terms.
                32 + varint_len(req.indexes.len() as u64)
                    + req
                        .indexes
                        .iter()
                        .scan(-1i64, |last, &i| {
                            let d = (i as i64 - *last - 1) as u64;
                            *last = i as i64;
                            Some(varint_len(d))
                        })
                        .sum::<usize>()
            }
            Message::BlockTxn(bt) => {
                32 + varint_len(bt.txs.len() as u64)
                    + bt.txs.iter().map(Transaction::size).sum::<usize>()
            }
        };
        24 + payload
    }

    /// Whether this message carries block data (used by the §V
    /// "prioritize block relay" refinement).
    pub fn is_block_bearing(&self) -> bool {
        matches!(
            self,
            Message::Block(_) | Message::CmpctBlock(_) | Message::BlockTxn(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MAX_BLOCK_TXS;
    use crate::compact::MAX_CMPCT_ITEMS;
    use crate::tx::{
        OutPoint, TxIn, TxOut, MAX_TX_IO, MIN_TXIN_BYTES, MIN_TXOUT_BYTES, MIN_TX_BYTES,
    };
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn addr(last: u8) -> NetAddr {
        NetAddr::from_ipv4(Ipv4Addr::new(192, 0, 2, last), 8333)
    }

    fn version_msg() -> VersionMsg {
        VersionMsg {
            version: PROTOCOL_VERSION,
            services: 1,
            timestamp: 1_600_000_000,
            addr_recv: addr(1),
            addr_from: addr(2),
            nonce: 0xdeadbeef,
            user_agent: "/bitsync:0.1.0/".into(),
            start_height: 630_000,
            relay: true,
        }
    }

    fn sample_block() -> Block {
        Block::assemble(
            2,
            Hash256::hash_of(b"prev"),
            1_600_000_000,
            3,
            vec![
                Transaction::coinbase(1, 50),
                Transaction::new(
                    vec![TxIn::new(OutPoint::new(Hash256::hash_of(b"x"), 0), vec![9])],
                    vec![TxOut::new(10, vec![0x51])],
                ),
            ],
        )
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Version(Box::new(version_msg())),
            Message::Verack,
            Message::GetAddr,
            Message::Addr(vec![
                TimestampedAddr::new(1_600_000_000, addr(3)),
                TimestampedAddr::new(1_600_000_100, addr(4)),
            ]),
            Message::Ping(7),
            Message::Pong(7),
            Message::Inv(vec![InvVect::tx(Hash256::hash_of(b"t"))]),
            Message::GetData(vec![InvVect::block(Hash256::hash_of(b"b"))]),
            Message::NotFound(vec![InvVect::tx(Hash256::hash_of(b"n"))]),
            Message::Tx(Transaction::coinbase(9, 50)),
            Message::Block(Box::new(sample_block())),
            Message::GetHeaders(Box::new(GetHeaders {
                locator: vec![Hash256::hash_of(b"tip"), Hash256::ZERO],
                stop: Hash256::ZERO,
            })),
            Message::Headers(vec![sample_block().header]),
            Message::SendCmpct(SendCmpct {
                announce: true,
                version: 1,
            }),
            Message::CmpctBlock(Box::new(CompactBlock::from_block(&sample_block(), 11))),
            Message::GetBlockTxn(Box::new(BlockTxnRequest {
                block_hash: Hash256::hash_of(b"b"),
                indexes: vec![1],
            })),
            Message::BlockTxn(Box::new(BlockTxn {
                block_hash: Hash256::hash_of(b"b"),
                txs: vec![Transaction::coinbase(1, 50)],
            })),
        ]
    }

    #[test]
    fn every_message_roundtrips_via_payload() {
        for msg in all_messages() {
            let payload = msg.encode_payload();
            let decoded = Message::decode_payload(msg.command(), &payload)
                .unwrap_or_else(|e| panic!("{}: {e}", msg.command()));
            assert_eq!(decoded, msg, "command {}", msg.command());
        }
    }

    #[test]
    fn every_message_roundtrips_via_frame() {
        for msg in all_messages() {
            let framed = msg.encode_framed(MAGIC_MAINNET);
            let (decoded, consumed) = Message::decode_framed(&framed, MAGIC_MAINNET)
                .unwrap_or_else(|e| panic!("{}: {e}", msg.command()));
            assert_eq!(decoded, msg);
            assert_eq!(consumed, framed.len());
            assert_eq!(msg.wire_size(), framed.len());
        }
    }

    #[test]
    fn frame_rejects_wrong_magic() {
        let framed = Message::Verack.encode_framed(MAGIC_MAINNET);
        let err = Message::decode_framed(&framed, [0, 1, 2, 3]).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidValue { .. }));
    }

    #[test]
    fn frame_rejects_corrupted_payload() {
        let mut framed = Message::Ping(1).encode_framed(MAGIC_MAINNET);
        let last = framed.len() - 1;
        framed[last] ^= 0xff;
        assert_eq!(
            Message::decode_framed(&framed, MAGIC_MAINNET).unwrap_err(),
            DecodeError::BadChecksum
        );
    }

    #[test]
    fn frame_rejects_truncation() {
        let framed = Message::Version(Box::new(version_msg())).encode_framed(MAGIC_MAINNET);
        for cut in [0, 10, 23, framed.len() - 1] {
            assert!(Message::decode_framed(&framed[..cut], MAGIC_MAINNET).is_err());
        }
    }

    #[test]
    fn version_rejects_a_user_agent_that_is_not_utf8() {
        let mut v = version_msg();
        v.user_agent = "x".repeat(100);
        let payload = Message::Version(Box::new(v)).encode_payload();
        let ua = 4 + 8 + 8 + 26 + 26 + 8 + 1;
        let mut hostile = payload.clone();
        hostile[ua..ua + 100].fill(0xff);
        assert!(Message::decode_payload("version", &payload).is_ok());
        assert_eq!(
            Message::decode_payload("version", &hostile).unwrap_err(),
            DecodeError::InvalidValue {
                what: "version.user_agent",
                value: 0
            }
        );
    }

    #[test]
    fn unknown_command_is_reported() {
        let err = Message::decode_payload("frobnicate", &[]).unwrap_err();
        assert_eq!(err, DecodeError::UnknownCommand("frobnicate".into()));
    }

    #[test]
    fn addrv2_and_sendaddrv2_frames_are_unknown_commands() {
        // BIP 155 is outside the Core 0.20 message set: a well-formed frame
        // (valid magic, length and checksum) is refused by name.
        for (command, payload) in [("sendaddrv2", vec![]), ("addrv2", vec![0u8])] {
            assert_eq!(
                Message::decode_framed(&frame(command, &payload), MAGIC_MAINNET).unwrap_err(),
                DecodeError::UnknownCommand(command.into())
            );
        }
    }

    /// `payload` under a well-formed header naming `command`: mainnet magic,
    /// true length, true checksum.
    fn frame(command: &str, payload: &[u8]) -> Vec<u8> {
        let mut framed = MAGIC_MAINNET.to_vec();
        let mut cmd = [0u8; 12];
        cmd[..command.len()].copy_from_slice(command.as_bytes());
        framed.extend_from_slice(&cmd);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&checksum4(payload));
        framed.extend_from_slice(payload);
        framed
    }

    #[test]
    fn addr_respects_protocol_limit() {
        let mut w = Writer::new();
        w.varint(1001);
        let err = Message::decode_payload("addr", &w.into_bytes()).unwrap_err();
        assert!(matches!(err, DecodeError::OversizedLength { .. }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Message::Ping(5).encode_payload();
        payload.push(0);
        assert_eq!(
            Message::decode_payload("ping", &payload).unwrap_err(),
            DecodeError::TrailingBytes(1)
        );
    }

    #[test]
    fn block_bearing_classification() {
        assert!(Message::Block(Box::new(sample_block())).is_block_bearing());
        assert!(
            Message::CmpctBlock(Box::new(CompactBlock::from_block(&sample_block(), 1)))
                .is_block_bearing()
        );
        assert!(!Message::GetAddr.is_block_bearing());
        assert!(!Message::Tx(Transaction::coinbase(1, 1)).is_block_bearing());
    }

    #[test]
    fn verack_checksum_matches_bitcoin_core() {
        // Empty-payload checksum is the canonical 5df6e0e2.
        let framed = Message::Verack.encode_framed(MAGIC_MAINNET);
        assert_eq!(&framed[20..24], &[0x5d, 0xf6, 0xe0, 0xe2]);
    }

    #[test]
    fn command_names_fit_twelve_bytes() {
        for msg in all_messages() {
            assert!(msg.command().len() <= 12, "{}", msg.command());
        }
    }

    /// A run of hostile payload bytes: noise, the zero runs and small counts
    /// that let a decoder reach its inner fields, and the largest value of
    /// each `CompactSize` width.
    fn hostile_chunk() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..256),
            Just(vec![0u8; 32]),
            Just(vec![0u8; 80]),
            (0u8..4).prop_map(|count| vec![count]),
            Just(vec![0xfd, 0xff, 0xff]),
            Just(vec![0xfe, 0xff, 0xff, 0xff, 0xff]),
            Just(vec![0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]),
            Just(vec![0xff; 9]),
        ]
    }

    /// Some `u32` or none: which valid payload a chunk is written over,
    /// what a frame's length field lies about, or where the frame is cut.
    fn maybe_u32() -> impl Strategy<Value = Option<u32>> {
        prop_oneof![Just(None), any::<u32>().prop_map(Some)]
    }

    /// The chunks end to end, or the valid payload `victim` picks with the
    /// first chunk written over it; at most 4 KiB either way.
    fn hostile_payload(chunks: &[Vec<u8>], victim: Option<u32>) -> Vec<u8> {
        let messages = all_messages();
        let mut payload = match victim {
            Some(pick) => {
                let pick = pick as usize;
                let mut valid = messages[pick % messages.len()].encode_payload();
                let at = (pick / messages.len()) % (valid.len() + 1);
                let chunk = chunks.first().map_or(&[][..], Vec::as_slice);
                let n = chunk.len().min(valid.len() - at);
                valid[at..at + n].copy_from_slice(&chunk[..n]);
                valid
            }
            None => chunks.concat(),
        };
        payload.truncate(4096);
        payload
    }

    /// Every command name the decoder knows, and one it does not.
    fn commands() -> Vec<&'static str> {
        let mut names: Vec<_> = all_messages().iter().map(Message::command).collect();
        names.push("frobnicate");
        names
    }

    proptest! {
        /// Hostile payloads — chunks as above, or a valid payload with one
        /// chunk written over it — never panic the decoder under any
        /// command name, and whatever it accepts survives a re-encode.
        #[test]
        fn hostile_payloads_never_panic_and_accepted_ones_roundtrip(
            chunks in proptest::collection::vec(hostile_chunk(), 0..24),
            victim in maybe_u32(),
            whole_entries in 0usize..4,
        ) {
            let payload = hostile_payload(&chunks, victim);
            for command in commands() {
                if let Ok(msg) = Message::decode_payload(command, &payload) {
                    let again = msg.encode_payload();
                    prop_assert_eq!(Message::decode_payload(msg.command(), &again), Ok(msg));
                }
            }
            // A list — the message's own or one nested in a transaction,
            // block or compact structure — that claims its maximum in a
            // frame cut off after a few whole entries (all-zero ones decode)
            // is refused at the first missing byte.
            for (command, prefix, max, entry_bytes) in [
                ("addr", 0, MAX_ADDR_PER_MSG as u64, 30),
                ("getheaders", 4, MAX_LOCATOR, 32),
                ("headers", 0, MAX_HEADERS_PER_MSG as u64, 81),
                // version | inputs
                ("tx", 4, MAX_TX_IO, MIN_TXIN_BYTES),
                // version, no inputs | outputs
                ("tx", 4 + 1, MAX_TX_IO, MIN_TXOUT_BYTES),
                // header | transactions
                ("block", 80, MAX_BLOCK_TXS, MIN_TX_BYTES),
                // header, nonce | short ids
                ("cmpctblock", 80 + 8, MAX_CMPCT_ITEMS, 6),
                // header, nonce, no short ids | (index differential, tx)s
                ("cmpctblock", 80 + 8 + 1, MAX_CMPCT_ITEMS, 1 + MIN_TX_BYTES),
                // block hash | index differentials
                ("getblocktxn", 32, MAX_CMPCT_ITEMS, 1),
                // block hash | transactions
                ("blocktxn", 32, MAX_CMPCT_ITEMS, MIN_TX_BYTES),
            ] {
                let mut w = Writer::new();
                w.bytes(&vec![0u8; prefix]);
                w.varint(max);
                w.bytes(&vec![0u8; whole_entries * entry_bytes]);
                let truncated = Message::decode_payload(command, &w.into_bytes());
                prop_assert!(
                    matches!(truncated, Err(DecodeError::UnexpectedEof { .. })),
                    "{}: {:?}", command, truncated
                );
            }
        }

        /// The same property through the framing: a hostile payload under
        /// every command name never panics `decode_framed`, honestly framed
        /// it decodes exactly as `decode_payload` does, and with a lying
        /// length field or cut short, whatever is accepted survives a
        /// re-frame.
        #[test]
        fn hostile_frames_never_panic_and_accepted_ones_roundtrip(
            chunks in proptest::collection::vec(hostile_chunk(), 0..24),
            victim in maybe_u32(),
            length in maybe_u32(),
            cut in maybe_u32(),
        ) {
            let payload = hostile_payload(&chunks, victim);
            for command in commands() {
                let mut framed = frame(command, &payload);
                prop_assert_eq!(
                    Message::decode_framed(&framed, MAGIC_MAINNET),
                    Message::decode_payload(command, &payload).map(|m| (m, framed.len()))
                );
                if let Some(length) = length {
                    framed[16..20].copy_from_slice(&length.to_le_bytes());
                }
                if let Some(cut) = cut {
                    framed.truncate(cut as usize % (framed.len() + 1));
                }
                if let Ok((msg, used)) = Message::decode_framed(&framed, MAGIC_MAINNET) {
                    prop_assert!(used <= framed.len());
                    let again = msg.encode_framed(MAGIC_MAINNET);
                    prop_assert_eq!(
                        Message::decode_framed(&again, MAGIC_MAINNET),
                        Ok((msg, again.len()))
                    );
                }
            }
        }
    }
}
