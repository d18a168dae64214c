//! The binary checkpoint: a point-in-time snapshot of the database that,
//! together with the (reset) log, fully determines recovered state.
//!
//! Expiration-aware truncation lives here by construction: the engine
//! snapshots only rows with `texp > clock` (dead rows are unobservable
//! and need no durability), then resets the log. Every log byte spent on
//! tuples that died before the checkpoint is reclaimed at that moment.
//!
//! Layout: the magic `EXPTWAL1`, a format version byte, then a single
//! CRC frame (same framing as log records) whose payload holds the
//! clock, each table's name/schema/rows, and the SQL of named views.
//! A corrupt or truncated checkpoint is reported as
//! [`std::io::ErrorKind::InvalidData`] — unlike a torn log tail, a bad
//! checkpoint cannot be silently skipped.

use crate::crc::crc32;
use crate::record::{
    put_str, put_time, put_u32, put_u64, put_values, put_vtype, Cursor, DecodeError,
};
use exptime_core::time::Time;
use exptime_core::value::{Value, ValueType};
use std::io;

const MAGIC: &[u8; 8] = b"EXPTWAL1";
const VERSION: u8 = 1;

/// One table's snapshot: schema plus its live rows and their expiration
/// times.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    pub name: String,
    pub columns: Vec<(String, ValueType)>,
    pub rows: Vec<(Vec<Value>, Time)>,
}

/// A full checkpoint: logical clock, live table contents, and the SQL
/// needed to recreate named views.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checkpoint {
    pub clock: u64,
    pub tables: Vec<TableSnapshot>,
    pub view_sql: Vec<String>,
}

impl Checkpoint {
    /// Total number of snapshotted rows across tables.
    #[must_use]
    pub fn live_rows(&self) -> u64 {
        self.tables.iter().map(|t| t.rows.len() as u64).sum()
    }

    /// Serializes the checkpoint (magic + version + one CRC frame).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(256);
        put_u64(&mut payload, self.clock);
        put_u32(&mut payload, self.tables.len() as u32);
        for t in &self.tables {
            put_str(&mut payload, &t.name);
            put_u32(&mut payload, t.columns.len() as u32);
            for (col, ty) in &t.columns {
                put_str(&mut payload, col);
                put_vtype(&mut payload, *ty);
            }
            put_u32(&mut payload, t.rows.len() as u32);
            for (values, texp) in &t.rows {
                put_values(&mut payload, values);
                put_time(&mut payload, *texp);
            }
        }
        put_u32(&mut payload, self.view_sql.len() as u32);
        for sql in &self.view_sql {
            put_str(&mut payload, sql);
        }

        let mut out = Vec::with_capacity(payload.len() + 17);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserializes a checkpoint blob. Any damage — bad magic, wrong
    /// version, truncation, CRC mismatch — is `InvalidData`.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        let bad =
            |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("checkpoint: {why}"));
        if bytes.len() < 17 {
            return Err(bad("truncated header"));
        }
        if &bytes[..8] != MAGIC {
            return Err(bad("bad magic"));
        }
        if bytes[8] != VERSION {
            return Err(bad("unsupported version"));
        }
        let len = u32::from_le_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]) as usize;
        let crc = u32::from_le_bytes([bytes[13], bytes[14], bytes[15], bytes[16]]);
        let payload = bytes
            .get(17..17 + len)
            .ok_or_else(|| bad("truncated payload"))?;
        if crc32(payload) != crc {
            return Err(bad("CRC mismatch"));
        }
        Self::decode_payload(payload).map_err(|e| bad(&e.to_string()))
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut c = Cursor::new(payload);
        let clock = c.u64()?;
        let n_tables = c.u32()? as usize;
        let mut tables = Vec::with_capacity(n_tables.min(1024));
        for _ in 0..n_tables {
            let name = c.str()?;
            let n_cols = c.u32()? as usize;
            let mut columns = Vec::with_capacity(n_cols.min(1024));
            for _ in 0..n_cols {
                let col = c.str()?;
                columns.push((col, c.vtype()?));
            }
            let n_rows = c.u32()? as usize;
            let mut rows = Vec::with_capacity(n_rows.min(1 << 16));
            for _ in 0..n_rows {
                let values = c.values()?;
                let texp = c.time()?;
                rows.push((values, texp));
            }
            tables.push(TableSnapshot {
                name,
                columns,
                rows,
            });
        }
        let n_views = c.u32()? as usize;
        let mut view_sql = Vec::with_capacity(n_views.min(1024));
        for _ in 0..n_views {
            view_sql.push(c.str()?);
        }
        if !c.done() {
            return Err(DecodeError::BadPayload("trailing bytes"));
        }
        Ok(Checkpoint {
            clock,
            tables,
            view_sql,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            clock: 17,
            tables: vec![
                TableSnapshot {
                    name: "pol".into(),
                    columns: vec![
                        ("uid".into(), ValueType::Int),
                        ("note".into(), ValueType::Str),
                    ],
                    rows: vec![
                        (vec![Value::Int(1), Value::from("αβγ")], Time::new(20)),
                        (vec![Value::Int(2), Value::from("")], Time::INFINITY),
                    ],
                },
                TableSnapshot {
                    name: "empty".into(),
                    columns: vec![("f".into(), ValueType::Float)],
                    rows: vec![],
                },
            ],
            view_sql: vec!["CREATE VIEW v AS SELECT uid FROM pol".into()],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let ck = sample();
        assert_eq!(Checkpoint::decode(&ck.encode()).unwrap(), ck);
        let empty = Checkpoint::default();
        assert_eq!(Checkpoint::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn live_rows_counts_across_tables() {
        assert_eq!(sample().live_rows(), 2);
    }

    #[test]
    fn corruption_is_invalid_data_not_garbage() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Checkpoint::decode(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x10;
            assert!(Checkpoint::decode(&b).is_err(), "flip at byte {i} accepted");
        }
    }
}
