//! The binary WAL record format.
//!
//! Every record is written as one *frame*:
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────┐
//! │ len: u32LE │ crc: u32LE │ payload (len B)  │
//! └────────────┴────────────┴──────────────────┘
//! ```
//!
//! `crc` is the CRC32 of the payload. A reader stops at the first frame
//! whose header is short, whose length is implausible, whose payload is
//! truncated, or whose CRC mismatches — everything before that point is
//! intact by construction, which is what makes "replay the committed
//! prefix" well defined after a crash at an arbitrary byte offset.
//!
//! Payloads start with a one-byte tag and use little-endian integers,
//! `u32`-length-prefixed UTF-8 strings, and tagged attribute values.
//! `texp` is a `u64` with `u64::MAX` denoting `∞` (never expires),
//! mirroring [`Time`]'s internal representation without depending on it.

use crate::crc::crc32;
use exptime_core::time::Time;
use exptime_core::value::{Value, ValueType};
use std::fmt;

/// Upper bound on a single frame's payload; anything larger is treated
/// as corruption (a torn length prefix), not as a record to allocate.
pub const MAX_FRAME: usize = 1 << 28;

const TAG_TXN_BEGIN: u8 = 1;
const TAG_TXN_COMMIT: u8 = 2;
const TAG_INSERT: u8 = 3;
const TAG_DELETE: u8 = 4;
const TAG_UPDATE_TEXP: u8 = 5;
const TAG_CLOCK_ADVANCE: u8 = 6;
const TAG_DDL: u8 = 7;

const VAL_INT: u8 = 0;
const VAL_FLOAT: u8 = 1;
const VAL_STR: u8 = 2;
const VAL_BOOL: u8 = 3;

/// One logical WAL record.
///
/// DML records carry the transaction they belong to; replay applies them
/// only when the matching [`WalRecord::TxnCommit`] made it to disk.
/// [`WalRecord::ClockAdvance`] and [`WalRecord::Ddl`] are
/// self-committing: a fully framed record is applied, a torn one is not.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A transaction (one SQL statement / one API operation) started.
    TxnBegin { txn: u64 },
    /// The transaction's operations are durable once this frame is.
    TxnCommit { txn: u64 },
    /// A tuple entered `table` with expiration time `texp`.
    Insert {
        txn: u64,
        table: String,
        values: Vec<Value>,
        texp: Time,
    },
    /// A tuple was explicitly deleted from `table`.
    Delete {
        txn: u64,
        table: String,
        values: Vec<Value>,
    },
    /// A tuple's expiration time was replaced (the paper's only UPDATE).
    UpdateTexp {
        txn: u64,
        table: String,
        values: Vec<Value>,
        texp: Time,
    },
    /// The logical clock advanced to `to`.
    ClockAdvance { to: u64 },
    /// A DDL statement (CREATE/DROP TABLE/VIEW) as replayable SQL.
    Ddl { sql: String },
}

impl WalRecord {
    /// Short tag for metrics/debug output.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::TxnBegin { .. } => "txn_begin",
            WalRecord::TxnCommit { .. } => "txn_commit",
            WalRecord::Insert { .. } => "insert",
            WalRecord::Delete { .. } => "delete",
            WalRecord::UpdateTexp { .. } => "update_texp",
            WalRecord::ClockAdvance { .. } => "clock_advance",
            WalRecord::Ddl { .. } => "ddl",
        }
    }
}

/// Why decoding stopped. Everything here means "treat the rest of the
/// log as a torn tail", not "fail recovery".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than a frame header.
    ShortHeader,
    /// The length prefix exceeds [`MAX_FRAME`] — a torn/corrupt prefix.
    ImplausibleLength(u64),
    /// The payload extends past the end of the log.
    TornPayload,
    /// CRC mismatch.
    BadCrc,
    /// The payload decoded to garbage (unknown tag, bad UTF-8, …).
    BadPayload(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::ShortHeader => write!(f, "short frame header"),
            DecodeError::ImplausibleLength(n) => write!(f, "implausible frame length {n}"),
            DecodeError::TornPayload => write!(f, "torn frame payload"),
            DecodeError::BadCrc => write!(f, "frame CRC mismatch"),
            DecodeError::BadPayload(why) => write!(f, "bad frame payload: {why}"),
        }
    }
}

// ---------------------------------------------------------------------
// Encoding
//
// The primitive writers and the [`Cursor`] reader are public: the wire
// protocol (`exptime-net`) frames its messages with exactly the same
// little-endian/length-prefixed/CRC discipline, and sharing the codec
// means one set of torn-frame/bit-flip rejection properties covers both
// the log on disk and the bytes on the network.
// ---------------------------------------------------------------------

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a [`Time`] as a `u64` (`u64::MAX` = `∞`).
pub fn put_time(out: &mut Vec<u8>, t: Time) {
    put_u64(out, t.finite().unwrap_or(u64::MAX));
}

/// Appends one tagged attribute value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(VAL_INT);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(VAL_FLOAT);
            put_u64(out, f.get().to_bits());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(u8::from(*b));
        }
    }
}

/// Appends a column type as one byte: the tag its values carry.
pub fn put_vtype(out: &mut Vec<u8>, ty: ValueType) {
    out.push(match ty {
        ValueType::Int => VAL_INT,
        ValueType::Float => VAL_FLOAT,
        ValueType::Str => VAL_STR,
        ValueType::Bool => VAL_BOOL,
    });
}

/// Appends a `u32`-counted sequence of tagged values.
pub fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    put_u32(out, values.len() as u32);
    for v in values {
        put_value(out, v);
    }
}

/// Encodes the record payload (no frame header).
#[must_use]
pub fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match rec {
        WalRecord::TxnBegin { txn } => {
            out.push(TAG_TXN_BEGIN);
            put_u64(&mut out, *txn);
        }
        WalRecord::TxnCommit { txn } => {
            out.push(TAG_TXN_COMMIT);
            put_u64(&mut out, *txn);
        }
        WalRecord::Insert {
            txn,
            table,
            values,
            texp,
        } => {
            out.push(TAG_INSERT);
            put_u64(&mut out, *txn);
            put_str(&mut out, table);
            put_values(&mut out, values);
            put_time(&mut out, *texp);
        }
        WalRecord::Delete { txn, table, values } => {
            out.push(TAG_DELETE);
            put_u64(&mut out, *txn);
            put_str(&mut out, table);
            put_values(&mut out, values);
        }
        WalRecord::UpdateTexp {
            txn,
            table,
            values,
            texp,
        } => {
            out.push(TAG_UPDATE_TEXP);
            put_u64(&mut out, *txn);
            put_str(&mut out, table);
            put_values(&mut out, values);
            put_time(&mut out, *texp);
        }
        WalRecord::ClockAdvance { to } => {
            out.push(TAG_CLOCK_ADVANCE);
            put_u64(&mut out, *to);
        }
        WalRecord::Ddl { sql } => {
            out.push(TAG_DDL);
            put_str(&mut out, sql);
        }
    }
    out
}

/// Encodes one record as a complete CRC-framed byte sequence.
#[must_use]
pub fn encode_frame(rec: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(rec);
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A little-endian cursor over a payload. Public for the same reason as
/// the `put_*` writers: the network frame codec decodes with it.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadPayload`] when the payload is exhausted.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(DecodeError::BadPayload("truncated u8"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadPayload`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let end = self
            .pos
            .checked_add(4)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError::BadPayload("truncated u32"))?;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadPayload`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError::BadPayload("truncated u64"))?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadPayload`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError::BadPayload("truncated string"))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| DecodeError::BadPayload("invalid UTF-8"))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    /// Reads a [`Time`] (`u64::MAX` decodes to `∞`).
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadPayload`] on truncation.
    pub fn time(&mut self) -> Result<Time, DecodeError> {
        let raw = self.u64()?;
        Ok(if raw == u64::MAX {
            Time::INFINITY
        } else {
            Time::new(raw)
        })
    }

    /// Reads one tagged attribute value.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadPayload`] on truncation or an unknown tag.
    pub fn value(&mut self) -> Result<Value, DecodeError> {
        match self.u8()? {
            VAL_INT => Ok(Value::Int(self.u64()? as i64)),
            VAL_FLOAT => Ok(Value::float(f64::from_bits(self.u64()?))),
            VAL_STR => Ok(Value::Str(self.str()?.into())),
            VAL_BOOL => Ok(Value::Bool(self.u8()? != 0)),
            _ => Err(DecodeError::BadPayload("unknown value tag")),
        }
    }

    /// Reads a column type written by [`put_vtype`].
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadPayload`] on truncation or an unknown tag.
    pub fn vtype(&mut self) -> Result<ValueType, DecodeError> {
        match self.u8()? {
            VAL_INT => Ok(ValueType::Int),
            VAL_FLOAT => Ok(ValueType::Float),
            VAL_STR => Ok(ValueType::Str),
            VAL_BOOL => Ok(ValueType::Bool),
            _ => Err(DecodeError::BadPayload("unknown value type tag")),
        }
    }

    /// Reads a `u32`-counted sequence of tagged values.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadPayload`] on truncation or an implausible count.
    pub fn values(&mut self) -> Result<Vec<Value>, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            // Each value costs at least one byte; an arity larger than the
            // remaining payload is corruption, not a huge allocation.
            return Err(DecodeError::BadPayload("implausible value count"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }
}

/// Decodes one payload (the bytes inside a verified frame).
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, DecodeError> {
    let mut c = Cursor::new(payload);
    let rec = match c.u8()? {
        TAG_TXN_BEGIN => WalRecord::TxnBegin { txn: c.u64()? },
        TAG_TXN_COMMIT => WalRecord::TxnCommit { txn: c.u64()? },
        TAG_INSERT => WalRecord::Insert {
            txn: c.u64()?,
            table: c.str()?,
            values: c.values()?,
            texp: c.time()?,
        },
        TAG_DELETE => WalRecord::Delete {
            txn: c.u64()?,
            table: c.str()?,
            values: c.values()?,
        },
        TAG_UPDATE_TEXP => WalRecord::UpdateTexp {
            txn: c.u64()?,
            table: c.str()?,
            values: c.values()?,
            texp: c.time()?,
        },
        TAG_CLOCK_ADVANCE => WalRecord::ClockAdvance { to: c.u64()? },
        TAG_DDL => WalRecord::Ddl { sql: c.str()? },
        _ => return Err(DecodeError::BadPayload("unknown record tag")),
    };
    if !c.done() {
        return Err(DecodeError::BadPayload("trailing bytes"));
    }
    Ok(rec)
}

/// Decodes the frame starting at `bytes[0]`, returning the record and
/// the total frame length consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<(WalRecord, usize), DecodeError> {
    if bytes.len() < 8 {
        return Err(DecodeError::ShortHeader);
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if len > MAX_FRAME {
        return Err(DecodeError::ImplausibleLength(len as u64));
    }
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let end = 8usize
        .checked_add(len)
        .ok_or(DecodeError::ImplausibleLength(len as u64))?;
    if bytes.len() < end {
        return Err(DecodeError::TornPayload);
    }
    let payload = &bytes[8..end];
    if crc32(payload) != crc {
        return Err(DecodeError::BadCrc);
    }
    Ok((decode_payload(payload)?, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::TxnBegin { txn: 7 },
            WalRecord::Insert {
                txn: 7,
                table: "pol".into(),
                values: vec![
                    Value::Int(-3),
                    Value::float(2.5),
                    Value::Str("ünïcödé ∞".into()),
                    Value::Bool(true),
                ],
                texp: Time::new(10),
            },
            WalRecord::Insert {
                txn: 7,
                table: "t".into(),
                values: vec![Value::Str("".into())],
                texp: Time::INFINITY,
            },
            WalRecord::Delete {
                txn: 7,
                table: "pol".into(),
                values: vec![],
            },
            WalRecord::UpdateTexp {
                txn: 7,
                table: "pol".into(),
                values: vec![Value::Int(1)],
                texp: Time::new(99),
            },
            WalRecord::TxnCommit { txn: 7 },
            WalRecord::ClockAdvance { to: 42 },
            WalRecord::Ddl {
                sql: "CREATE TABLE pol (uid INT)".into(),
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for rec in samples() {
            let frame = encode_frame(&rec);
            let (decoded, used) = decode_frame(&frame).unwrap();
            assert_eq!(decoded, rec);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn torn_frames_are_rejected_not_misread() {
        let frame = encode_frame(&samples()[1]);
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = encode_frame(&samples()[1]);
        for i in 0..frame.len() {
            let mut f = frame.clone();
            f[i] ^= 0x40;
            match decode_frame(&f) {
                Err(_) => {}
                Ok((rec, used)) => panic!("flip at {i} decoded as {rec:?} ({used} bytes)"),
            }
        }
    }

    #[test]
    fn infinity_and_finite_times_round_trip() {
        for t in [Time::ZERO, Time::new(1), Time::MAX_FINITE, Time::INFINITY] {
            let rec = WalRecord::UpdateTexp {
                txn: 0,
                table: "x".into(),
                values: vec![],
                texp: t,
            };
            let (decoded, _) = decode_frame(&encode_frame(&rec)).unwrap();
            assert_eq!(decoded, rec);
        }
    }
}
