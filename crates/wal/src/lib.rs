//! # exptime-wal
//!
//! An expiration-aware write-ahead log for the exptime engine: the
//! durability layer the paper's storage-level argument calls for
//! (Schmidt & Jensen, *Efficient Management of Short-Lived Data*: when
//! every tuple carries a `texp`, history whose tuples are already dead
//! never needs to be kept — or replayed).
//!
//! The pieces, bottom-up:
//!
//! * [`crc`] — CRC32 (IEEE) over record payloads; torn and corrupted
//!   frames are detected, never replayed.
//! * [`record`] — the binary record format: length-prefixed, CRC-framed
//!   records for transaction begin/commit, insert, delete,
//!   expiration-time update, clock advance, and DDL.
//! * [`store`] — where bytes live: a real directory ([`FileStore`],
//!   `wal.log` + atomically-replaced `checkpoint.bin`) or a determinstic
//!   in-memory disk ([`MemStore`]) that can be crashed at an arbitrary
//!   byte offset, bit-flipped, or made to fail IO — the crash-injection
//!   harness the recovery property tests drive.
//! * [`log`] — the append path: [`Wal`] encodes records, batches fsyncs
//!   (group commit), and exposes `wal.*` metrics (bytes, records,
//!   fsync latency histogram) through `exptime-obs`.
//! * [`checkpoint`] — the binary snapshot written at a checkpoint: the
//!   logical clock plus every table's schema and *live* rows only
//!   (`texp > clock` — the expiration-aware truncation invariant), after
//!   which the log is reset.
//! * [`replay`] — recovery: scan the log up to the first torn/corrupt
//!   frame, keep only operations of committed transactions (plus
//!   self-committing clock/DDL records), and — in expiration-aware
//!   mode — skip insert records whose tuples are already expired at the
//!   recovered clock, so replay work is proportional to live data, not
//!   to history.
//!
//! The engine (`exptime-engine`) owns the wiring: which operations log
//! which records, and how a [`Checkpoint`] maps onto a `Database`.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod crc;
pub mod log;
pub mod record;
pub mod replay;
pub mod store;

pub use checkpoint::{Checkpoint, TableSnapshot};
pub use crc::crc32;
pub use log::{TruncationStats, Wal, WalMetrics};
pub use record::{
    decode_frame, encode_frame, put_str, put_time, put_u32, put_u64, put_value, put_values,
    put_vtype, Cursor, DecodeError, WalRecord, MAX_FRAME,
};
pub use replay::{committed_prefix, replay_plan, scan_log, LogScan, ReplayPlan};
pub use store::{FaultPlan, FileStore, MemStore, WalStore};
