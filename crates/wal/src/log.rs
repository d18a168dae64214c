//! The append path: [`Wal`] frames records onto a [`WalStore`], batches
//! fsyncs (group commit), writes checkpoints, and reads back state for
//! recovery. Metrics are plain `exptime-obs` handles, so attaching the
//! WAL to a database's registry lights up `wal.*` counters and the
//! `wal.fsync_ns` fsync-latency histogram for free.

use crate::checkpoint::Checkpoint;
use crate::record::{encode_frame, WalRecord};
use crate::replay::{scan_log, LogScan};
use crate::store::WalStore;
use exptime_obs::{Counter, Histogram, MetricsRegistry};
use std::io;
use std::time::Instant;

/// Metric handles for the WAL. Unattached handles still count (they are
/// free-standing atomics); [`Wal::attach`] re-points them at a shared
/// registry.
#[derive(Debug, Clone)]
pub struct WalMetrics {
    /// Bytes appended to the log.
    pub bytes: Counter,
    /// Records appended.
    pub records: Counter,
    /// Transactions committed.
    pub commits: Counter,
    /// fsyncs issued.
    pub fsyncs: Counter,
    /// Checkpoints written.
    pub checkpoints: Counter,
    /// Log bytes reclaimed by checkpoint truncation.
    pub reclaimed_bytes: Counter,
    /// fsync latency, nanoseconds.
    pub fsync_ns: Histogram,
}

impl WalMetrics {
    fn detached() -> Self {
        let r = MetricsRegistry::new();
        Self::from_registry(&r)
    }

    fn from_registry(r: &MetricsRegistry) -> Self {
        WalMetrics {
            bytes: r.counter("wal.bytes"),
            records: r.counter("wal.records"),
            commits: r.counter("wal.commits"),
            fsyncs: r.counter("wal.fsyncs"),
            checkpoints: r.counter("wal.checkpoints"),
            reclaimed_bytes: r.counter("wal.reclaimed_bytes"),
            fsync_ns: r.histogram("wal.fsync_ns"),
        }
    }
}

/// Statistics returned by [`Wal::write_checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncationStats {
    /// Log bytes reclaimed (the log length before truncation).
    pub reclaimed_bytes: u64,
    /// Size of the checkpoint blob written.
    pub checkpoint_bytes: u64,
    /// Rows captured in the checkpoint.
    pub live_rows: u64,
}

/// The write-ahead log: encodes records, appends them to a store, and
/// syncs every `group_commit` committed transactions.
pub struct Wal {
    store: Box<dyn WalStore>,
    next_txn: u64,
    unsynced_commits: usize,
    group_commit: usize,
    metrics: WalMetrics,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("next_txn", &self.next_txn)
            .field("group_commit", &self.group_commit)
            .field("log_len", &self.store.log_len())
            .finish()
    }
}

impl Wal {
    /// Wraps a store. `group_commit` is clamped to at least 1: sync on
    /// every commit. Larger values batch that many commits per fsync.
    #[must_use]
    pub fn new(store: Box<dyn WalStore>, group_commit: usize) -> Self {
        Wal {
            store,
            next_txn: 1,
            unsynced_commits: 0,
            group_commit: group_commit.max(1),
            metrics: WalMetrics::detached(),
        }
    }

    /// Re-points the metric handles at a shared registry (idempotent;
    /// counts recorded before attachment stay on the detached handles).
    pub fn attach(&mut self, registry: &MetricsRegistry) {
        self.metrics = WalMetrics::from_registry(registry);
    }

    /// Current metric handles.
    #[must_use]
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// Allocates a fresh transaction id.
    pub fn begin_txn(&mut self) -> u64 {
        let txn = self.next_txn;
        self.next_txn += 1;
        txn
    }

    /// Appends one record (framed). No durability until the next sync.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        let frame = encode_frame(rec);
        self.store.log_append(&frame)?;
        self.metrics.bytes.add(frame.len() as u64);
        self.metrics.records.inc();
        Ok(())
    }

    /// Marks a transaction committed (its `TxnCommit` record must
    /// already be appended) and fsyncs if the group-commit budget is
    /// exhausted.
    pub fn commit(&mut self) -> io::Result<()> {
        self.metrics.commits.inc();
        self.unsynced_commits += 1;
        if self.unsynced_commits >= self.group_commit {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces an fsync of all appended bytes, recording latency.
    pub fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        self.store.log_sync()?;
        self.metrics
            .fsync_ns
            .record(start.elapsed().as_nanos() as u64);
        self.metrics.fsyncs.inc();
        self.unsynced_commits = 0;
        Ok(())
    }

    /// Number of committed transactions not yet covered by an fsync
    /// (always `< group_commit`).
    #[must_use]
    pub fn unsynced_commits(&self) -> usize {
        self.unsynced_commits
    }

    /// Current log length in bytes.
    #[must_use]
    pub fn log_len(&self) -> u64 {
        self.store.log_len()
    }

    /// Writes a checkpoint and truncates the log.
    ///
    /// Order matters for crash safety: pending log bytes are fsynced,
    /// the checkpoint blob is atomically replaced, and only then is the
    /// log reset. A crash between the last two steps replays log records
    /// against the *new* checkpoint — operations already captured by the
    /// snapshot re-apply idempotently (KeepMax upserts, delete-by-value,
    /// monotone clock advances), so recovered state is unchanged.
    pub fn write_checkpoint(&mut self, ck: &Checkpoint) -> io::Result<TruncationStats> {
        self.sync()?;
        let blob = ck.encode();
        self.store.checkpoint_write(&blob)?;
        let reclaimed = self.store.log_len();
        self.store.log_reset()?;
        self.metrics.checkpoints.inc();
        self.metrics.reclaimed_bytes.add(reclaimed);
        Ok(TruncationStats {
            reclaimed_bytes: reclaimed,
            checkpoint_bytes: blob.len() as u64,
            live_rows: ck.live_rows(),
        })
    }

    /// Reads everything recovery needs: the latest checkpoint (if any)
    /// and a scan of the log up to the first torn/corrupt frame. Every
    /// transaction id the scan saw is spent: [`Wal::begin_txn`] hands out
    /// only later ones.
    pub fn read_state(&mut self) -> io::Result<(Option<Checkpoint>, LogScan)> {
        let ck = match self.store.checkpoint_read()? {
            Some(bytes) => Some(Checkpoint::decode(&bytes)?),
            None => None,
        };
        let scan = scan_log(&self.store.log_read()?);
        for rec in &scan.records {
            if let WalRecord::TxnBegin { txn }
            | WalRecord::TxnCommit { txn }
            | WalRecord::Insert { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::UpdateTexp { txn, .. } = rec
            {
                self.next_txn = self.next_txn.max(txn.saturating_add(1));
            }
        }
        Ok((ck, scan))
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if self.unsynced_commits > 0 {
            let _ = self.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn group_commit_batches_fsyncs() {
        let disk = MemStore::new();
        let mut wal = Wal::new(Box::new(disk.clone()), 4);
        for i in 0..8 {
            let txn = wal.begin_txn();
            assert_eq!(txn, i + 1);
            wal.append(&WalRecord::TxnBegin { txn }).unwrap();
            wal.append(&WalRecord::TxnCommit { txn }).unwrap();
            wal.commit().unwrap();
        }
        // 8 commits at group_commit=4 → exactly 2 fsyncs.
        assert_eq!(disk.fsyncs(), 2);
        assert_eq!(wal.metrics().commits.get(), 8);
        assert_eq!(wal.metrics().records.get(), 16);
        assert_eq!(wal.metrics().bytes.get(), disk.len());
    }

    #[test]
    fn drop_flushes_pending_commits() {
        let disk = MemStore::new();
        {
            let mut wal = Wal::new(Box::new(disk.clone()), 100);
            let txn = wal.begin_txn();
            wal.append(&WalRecord::TxnBegin { txn }).unwrap();
            wal.append(&WalRecord::TxnCommit { txn }).unwrap();
            wal.commit().unwrap();
            assert_eq!(disk.fsyncs(), 0);
        }
        assert_eq!(disk.fsyncs(), 1);
    }

    #[test]
    fn read_state_spends_every_txn_id_the_log_holds() {
        let disk = MemStore::new();
        let mut wal = Wal::new(Box::new(disk.clone()), 1);
        // A begun-but-uncommitted transaction's id is spent too, and ids
        // need not be logged in order.
        wal.append(&WalRecord::TxnBegin { txn: 3 }).unwrap();
        wal.append(&WalRecord::TxnCommit { txn: 3 }).unwrap();
        wal.append(&WalRecord::Delete {
            txn: 9,
            table: "t".into(),
            values: vec![],
        })
        .unwrap();
        wal.append(&WalRecord::ClockAdvance { to: 40 }).unwrap();
        wal.append(&WalRecord::TxnBegin { txn: 5 }).unwrap();
        let mut reopened = Wal::new(Box::new(disk.clone()), 1);
        assert_eq!(reopened.begin_txn(), 1, "nothing read yet");
        reopened.read_state().unwrap();
        assert_eq!(reopened.begin_txn(), 10);
        // An empty log leaves the ids where they were.
        let mut fresh = Wal::new(Box::new(MemStore::new()), 1);
        fresh.read_state().unwrap();
        assert_eq!(fresh.begin_txn(), 1);
    }

    #[test]
    fn checkpoint_truncates_and_counts_reclaimed_bytes() {
        let disk = MemStore::new();
        let mut wal = Wal::new(Box::new(disk.clone()), 1);
        wal.append(&WalRecord::ClockAdvance { to: 5 }).unwrap();
        wal.sync().unwrap();
        let before = wal.log_len();
        assert!(before > 0);
        let stats = wal.write_checkpoint(&Checkpoint::default()).unwrap();
        assert_eq!(stats.reclaimed_bytes, before);
        assert_eq!(wal.log_len(), 0);
        let (ck, scan) = wal.read_state().unwrap();
        assert_eq!(ck, Some(Checkpoint::default()));
        assert!(scan.records.is_empty());
    }
}
