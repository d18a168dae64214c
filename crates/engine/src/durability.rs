//! Durability configuration and status types for the WAL-backed engine.
//!
//! The mechanics live in `exptime-wal` (record format, stores, replay
//! planning), in `db/write.rs` (which change logs which record) and in
//! `db/durable.rs` (the live log session, the statement bracket, recovery,
//! checkpoints, dump/restore); this module holds the knobs and the
//! reports.
//!
//! The protocol, end to end:
//!
//! * Every SQL statement (and every direct API `insert`) runs as one WAL
//!   transaction: `TxnBegin`, one record per *applied* operation,
//!   `TxnCommit`. The engine's statements are not atomic — a failing
//!   multi-row `INSERT` keeps its earlier rows — so the commit is written
//!   even when the statement errors, keeping durable state identical to
//!   in-memory state. A crash mid-statement leaves the transaction
//!   without its commit record and replay drops it whole.
//! * Clock advances and DDL are self-committing records: durable iff
//!   fully framed.
//! * `fsync` happens every `group_commit` commits (group commit), on
//!   checkpoint, and when the database is dropped.
//! * A checkpoint snapshots the clock, every table's *live* rows
//!   (`texp > clock` — dead rows are unobservable and need no
//!   durability), and the SQL of every SQL-defined view; then the log is
//!   truncated. This is expiration-aware truncation: log bytes spent on
//!   tuples that died before the checkpoint are reclaimed with it.
//! * Recovery on open replays the committed prefix of the log on top of
//!   the checkpoint, skipping insert records whose tuples are provably
//!   dead at the recovered clock — replay work is proportional to live
//!   data, not history — then writes a fresh checkpoint so the torn tail
//!   is discarded and the next crash starts from a clean log.

pub use exptime_wal::{FileStore, MemStore, TruncationStats, Wal, WalStore};

/// Whether and how a [`Database`](crate::Database) persists its writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No WAL: the database lives and dies in memory (the pre-WAL
    /// behaviour, and still the right mode for benches and simulations).
    #[default]
    Volatile,
    /// Write-ahead logging with periodic checkpoints.
    Wal {
        /// Commits per fsync. `1` = sync every commit (safest, slowest);
        /// `n` batches up to `n` commits per fsync, risking at most the
        /// last `n-1` committed statements on power loss.
        group_commit: usize,
        /// Automatic checkpoint cadence in logical ticks (`0` = manual
        /// checkpoints only, via [`Database::checkpoint`](crate::Database::checkpoint)).
        checkpoint_every: u64,
    },
}

impl Durability {
    /// WAL durability with the defaults used by the CLI and tests:
    /// sync every commit, checkpoint every 64 ticks.
    #[must_use]
    pub fn wal() -> Self {
        Durability::Wal {
            group_commit: 1,
            checkpoint_every: 64,
        }
    }
}

/// What recovery did when the database was opened (see
/// [`Database::recovery_stats`](crate::Database::recovery_stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Clock recovered from the checkpoint, before log replay.
    pub checkpoint_clock: u64,
    /// Rows restored from the checkpoint snapshot.
    pub checkpoint_rows: u64,
    /// Log records actually replayed.
    pub replayed: u64,
    /// Committed insert records skipped as already expired.
    pub skipped_expired: u64,
    /// Records dropped because their transaction never committed.
    pub skipped_uncommitted: u64,
    /// Log bytes after the last intact frame (the crash tail).
    pub torn_bytes: u64,
    /// The clock after recovery.
    pub clock: u64,
}

/// The result of a checkpoint (see
/// [`Database::checkpoint`](crate::Database::checkpoint)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Logical time of the snapshot.
    pub at: u64,
    /// Live rows captured.
    pub live_rows: u64,
    /// Log bytes reclaimed by truncation.
    pub reclaimed_bytes: u64,
    /// Size of the checkpoint blob.
    pub checkpoint_bytes: u64,
}

/// Point-in-time WAL status (see
/// [`Database::wal_status`](crate::Database::wal_status) and the CLI's
/// `\wal status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStatus {
    /// Current log length in bytes.
    pub log_bytes: u64,
    /// Commits per fsync.
    pub group_commit: usize,
    /// Automatic checkpoint cadence (`0` = manual only).
    pub checkpoint_every: u64,
    /// Logical time of the last checkpoint.
    pub last_checkpoint_clock: u64,
    /// Set when any write to the log failed — a record, a commit, an
    /// fsync or a checkpoint, whether a statement, a clock advance or the
    /// checkpoint cadence made it: durable and in-memory state may have
    /// diverged since. Only a successful
    /// [`Database::checkpoint`](crate::Database::checkpoint), which
    /// re-snapshots everything, clears it.
    pub degraded: bool,
    /// Recovery statistics from open, if this database recovered.
    pub recovery: Option<RecoveryStats>,
}
