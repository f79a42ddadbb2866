//! Transactions in (pre-segwit) Bitcoin wire form: version, inputs, outputs
//! and lock time. The txid is the double-SHA-256 of the serialization,
//! computed once when a [`Transaction`] is built.
//!
//! Script contents are carried as opaque bytes — the simulation never
//! executes scripts, but sizes and identifiers must be faithful because
//! compact-block reconstruction (Figures 10/11) depends on txids and
//! transaction sizes.

use crate::hash::Hash256;
use crate::wire::{Decodable, DecodeError, Encodable, Reader, Writer};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Maximum script length we accept when decoding (consensus allows 10,000
/// bytes for executed scripts; this is a sanity bound for the simulator).
const MAX_SCRIPT_LEN: u64 = 10_000;
/// Sanity bound on inputs/outputs per transaction.
pub(crate) const MAX_TX_IO: u64 = 100_000;
/// The smallest input: outpoint, empty script, sequence.
pub(crate) const MIN_TXIN_BYTES: usize = 32 + 4 + 1 + 4;
/// The smallest output: value and empty script.
pub(crate) const MIN_TXOUT_BYTES: usize = 8 + 1;
/// The smallest transaction: version, no inputs, no outputs, lock time.
pub(crate) const MIN_TX_BYTES: usize = 4 + 1 + 1 + 4;

/// Reference to a previous transaction output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OutPoint {
    /// The funding transaction id.
    pub txid: Hash256,
    /// Output index in the funding transaction.
    pub vout: u32,
}

impl OutPoint {
    /// The null outpoint used by coinbase inputs.
    pub const NULL: OutPoint = OutPoint {
        txid: Hash256::ZERO,
        vout: u32::MAX,
    };

    /// Creates an outpoint.
    pub fn new(txid: Hash256, vout: u32) -> Self {
        OutPoint { txid, vout }
    }

    /// Whether this is the coinbase null outpoint.
    pub fn is_null(&self) -> bool {
        self.txid.is_zero() && self.vout == u32::MAX
    }
}

impl Encodable for OutPoint {
    fn encode(&self, w: &mut Writer) {
        self.txid.encode(w);
        w.u32_le(self.vout);
    }
}

impl Decodable for OutPoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(OutPoint {
            txid: Hash256::decode(r)?,
            vout: r.u32_le("outpoint.vout")?,
        })
    }
}

/// A transaction input.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TxIn {
    /// The spent output.
    pub previous_output: OutPoint,
    /// Unlocking script (opaque to the simulator).
    pub script_sig: Vec<u8>,
    /// Sequence number.
    pub sequence: u32,
}

impl TxIn {
    /// Creates an input spending `previous_output` with final sequence.
    pub fn new(previous_output: OutPoint, script_sig: Vec<u8>) -> Self {
        TxIn {
            previous_output,
            script_sig,
            sequence: u32::MAX,
        }
    }
}

impl Encodable for TxIn {
    fn encode(&self, w: &mut Writer) {
        self.previous_output.encode(w);
        w.varint(self.script_sig.len() as u64);
        w.bytes(&self.script_sig);
        w.u32_le(self.sequence);
    }
}

impl Decodable for TxIn {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let previous_output = OutPoint::decode(r)?;
        let len = r.length("txin.script", MAX_SCRIPT_LEN)?;
        let script_sig = r.take(len, "txin.script")?.to_vec();
        let sequence = r.u32_le("txin.sequence")?;
        Ok(TxIn {
            previous_output,
            script_sig,
            sequence,
        })
    }
}

/// A transaction output.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TxOut {
    /// Value in satoshis.
    pub value: u64,
    /// Locking script (opaque to the simulator).
    pub script_pubkey: Vec<u8>,
}

impl TxOut {
    /// Creates an output paying `value` satoshis.
    pub fn new(value: u64, script_pubkey: Vec<u8>) -> Self {
        TxOut {
            value,
            script_pubkey,
        }
    }
}

impl Encodable for TxOut {
    fn encode(&self, w: &mut Writer) {
        w.u64_le(self.value);
        w.varint(self.script_pubkey.len() as u64);
        w.bytes(&self.script_pubkey);
    }
}

impl Decodable for TxOut {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let value = r.u64_le("txout.value")?;
        let len = r.length("txout.script", MAX_SCRIPT_LEN)?;
        let script_pubkey = r.take(len, "txout.script")?.to_vec();
        Ok(TxOut {
            value,
            script_pubkey,
        })
    }
}

/// The contents of a [`Transaction`]: the four wire fields, readable
/// through the handle's `Deref`, plus the id computed from them.
///
/// Only the [`Transaction`] constructors build one (the `txid` field is
/// private), and nothing hands out a `&mut TxBody` or an owned copy, so the
/// memoized id can never go stale.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct TxBody {
    /// Double-SHA-256 of the serialization of the fields below.
    txid: Hash256,
    /// Transaction format version.
    pub version: i32,
    /// Inputs.
    pub inputs: Vec<TxIn>,
    /// Outputs.
    pub outputs: Vec<TxOut>,
    /// Earliest block/time the transaction may be mined.
    pub lock_time: u32,
}

impl Encodable for TxBody {
    fn encode(&self, w: &mut Writer) {
        w.u32_le(self.version as u32);
        w.varint(self.inputs.len() as u64);
        for i in &self.inputs {
            i.encode(w);
        }
        w.varint(self.outputs.len() as u64);
        for o in &self.outputs {
            o.encode(w);
        }
        w.u32_le(self.lock_time);
    }
}

/// A Bitcoin transaction: an immutable, reference-counted handle.
///
/// The body is hashed once, when the handle is built; [`Transaction::txid`]
/// is a field read and `clone` a reference-count bump, so one body is shared
/// by every mempool, block, send queue and in-flight message that holds the
/// transaction. Fields are read through `Deref` (`tx.inputs`, `tx.outputs`);
/// to change one, build a new transaction with [`Transaction::from_parts`].
///
/// # Examples
///
/// ```
/// use bitsync_protocol::tx::{OutPoint, Transaction, TxIn, TxOut};
/// use bitsync_protocol::hash::Hash256;
///
/// let tx = Transaction::new(
///     vec![TxIn::new(OutPoint::new(Hash256::hash_of(b"prev"), 0), vec![1, 2, 3])],
///     vec![TxOut::new(50_000, vec![0x51])],
/// );
/// assert!(!tx.txid().is_zero());
/// assert_eq!(tx.outputs[0].value, 50_000);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Transaction(Arc<TxBody>);

impl Transaction {
    /// Builds a transaction from all four wire fields, computing its txid.
    pub fn from_parts(
        version: i32,
        inputs: Vec<TxIn>,
        outputs: Vec<TxOut>,
        lock_time: u32,
    ) -> Self {
        let mut body = TxBody {
            txid: Hash256::ZERO,
            version,
            inputs,
            outputs,
            lock_time,
        };
        body.txid = Hash256::hash_of(&body.encode_to_vec());
        Transaction(Arc::new(body))
    }

    /// Creates a version-2 transaction with lock time zero.
    pub fn new(inputs: Vec<TxIn>, outputs: Vec<TxOut>) -> Self {
        Transaction::from_parts(2, inputs, outputs, 0)
    }

    /// Builds a coinbase transaction whose uniqueness comes from `tag`
    /// (height and extranonce material in real Bitcoin).
    pub fn coinbase(tag: u64, reward: u64) -> Self {
        Transaction::new(
            vec![TxIn::new(OutPoint::NULL, tag.to_le_bytes().to_vec())],
            vec![TxOut::new(reward, vec![0x51])],
        )
    }

    /// Whether this is a coinbase transaction.
    pub fn is_coinbase(&self) -> bool {
        self.inputs.len() == 1 && self.inputs[0].previous_output.is_null()
    }

    /// The transaction id: double-SHA-256 of the serialization, computed
    /// when the transaction was built.
    pub fn txid(&self) -> Hash256 {
        self.0.txid
    }

    /// Serialized size in bytes, computed without encoding.
    pub fn size(&self) -> usize {
        use crate::wire::varint_len;
        let ins: usize = self
            .inputs
            .iter()
            .map(|i| 32 + 4 + varint_len(i.script_sig.len() as u64) + i.script_sig.len() + 4)
            .sum();
        let outs: usize = self
            .outputs
            .iter()
            .map(|o| 8 + varint_len(o.script_pubkey.len() as u64) + o.script_pubkey.len())
            .sum();
        4 + varint_len(self.inputs.len() as u64)
            + ins
            + varint_len(self.outputs.len() as u64)
            + outs
            + 4
    }
}

impl Deref for Transaction {
    type Target = TxBody;

    fn deref(&self) -> &TxBody {
        &self.0
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("version", &self.version)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("lock_time", &self.lock_time)
            .finish()
    }
}

impl Encodable for Transaction {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

impl Decodable for Transaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let version = r.u32_le("tx.version")? as i32;
        let (n_in, mut inputs) = r.list("tx.inputs", MAX_TX_IO, MIN_TXIN_BYTES)?;
        for _ in 0..n_in {
            inputs.push(TxIn::decode(r)?);
        }
        let (n_out, mut outputs) = r.list("tx.outputs", MAX_TX_IO, MIN_TXOUT_BYTES)?;
        for _ in 0..n_out {
            outputs.push(TxOut::decode(r)?);
        }
        let lock_time = r.u32_le("tx.lock_time")?;
        Ok(Transaction::from_parts(version, inputs, outputs, lock_time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx() -> Transaction {
        Transaction::new(
            vec![
                TxIn::new(OutPoint::new(Hash256::hash_of(b"a"), 0), vec![1, 2, 3]),
                TxIn::new(OutPoint::new(Hash256::hash_of(b"b"), 3), vec![]),
            ],
            vec![
                TxOut::new(1_000, vec![0x76, 0xa9]),
                TxOut::new(2_000, vec![0x51]),
            ],
        )
    }

    #[test]
    fn roundtrip() {
        let tx = sample_tx();
        let bytes = tx.encode_to_vec();
        assert_eq!(Transaction::decode_exact(&bytes).unwrap(), tx);
    }

    #[test]
    fn txid_changes_with_content() {
        let tx = sample_tx();
        let mut outputs = tx.outputs.clone();
        outputs[0].value += 1;
        let tx2 = Transaction::from_parts(tx.version, tx.inputs.clone(), outputs, tx.lock_time);
        assert_ne!(tx.txid(), tx2.txid());
        assert_ne!(tx, tx2);
    }

    #[test]
    fn from_parts_commits_to_version_and_lock_time() {
        let tx = sample_tx();
        let later = Transaction::from_parts(1, tx.inputs.clone(), tx.outputs.clone(), 500_000);
        assert_eq!((later.version, later.lock_time), (1, 500_000));
        assert_ne!(later.txid(), tx.txid());
        assert_eq!(later.txid(), Hash256::hash_of(&later.encode_to_vec()));
    }

    #[test]
    fn txid_is_hash_of_serialization() {
        let tx = sample_tx();
        assert_eq!(tx.txid(), Hash256::hash_of(&tx.encode_to_vec()));
    }

    #[test]
    fn coinbase_detection() {
        let cb = Transaction::coinbase(7, 625_000_000);
        assert!(cb.is_coinbase());
        assert!(!sample_tx().is_coinbase());
    }

    #[test]
    fn coinbase_tags_make_unique_txids() {
        assert_ne!(
            Transaction::coinbase(1, 50).txid(),
            Transaction::coinbase(2, 50).txid()
        );
    }

    #[test]
    fn size_matches_encoding() {
        let tx = sample_tx();
        assert_eq!(tx.size(), tx.encode_to_vec().len());
    }

    #[test]
    fn rejects_oversized_script() {
        let mut w = Writer::new();
        w.u32_le(2); // version
        w.varint(1); // one input
        OutPoint::NULL.encode(&mut w);
        w.varint(20_000); // oversized script length
        let err = Transaction::decode_exact(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, DecodeError::OversizedLength { .. }));
    }

    #[test]
    fn empty_io_roundtrip() {
        let tx = Transaction::new(vec![], vec![]);
        let bytes = tx.encode_to_vec();
        assert_eq!(Transaction::decode_exact(&bytes).unwrap(), tx);
    }
}
