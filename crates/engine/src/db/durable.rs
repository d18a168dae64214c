//! The durability stage of the statement pipeline (dispatch → read → write
//! → policy touch → **durability** → maintenance): opening a database from
//! its log, checkpoints, the bracket a statement's changes are logged in,
//! and dump/restore — the SQL image of a database, which shares no code
//! with the checkpoint's so that each can be checked against the other.
//!
//! Each rule of the stage is written once:
//!
//! * **A failed log write degrades the session.** Every byte reaches the
//!   log through a [`WalSession`] method — `append`, `commit`, `sync`,
//!   `checkpoint` — and any of them failing sets `degraded`: durable state
//!   may be behind memory. Only a successful checkpoint, which
//!   re-snapshots everything, clears it.
//! * **A statement is one transaction** ([`Database::wal_stmt`]):
//!   `TxnBegin`, the redo record of each change `db/write.rs` applies
//!   ([`Database::wal_log_op`]), `TxnCommit` — written even when the
//!   statement fails, because statements are not atomic. DDL
//!   ([`Database::log_ddl`]) and clock advances
//!   ([`Database::wal_after_advance`]) commit themselves.
//! * **What the engine replays on its own behalf runs as the system**
//!   ([`Database::as_system`]): recovery, restore and the telemetry sampler.
//! * **Redo is do.** Recovery rebuilds a checkpoint and redoes the log
//!   through the `apply` live statements use, with no session attached, so
//!   nothing it redoes is logged again.

use super::write::Change;
use super::{columns, gauge_i64, schema_of_columns, Database, DbConfig, DbError, DbResult};
use crate::durability::{CheckpointStats, Durability, RecoveryStats, WalStatus};
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_core::value::Value;
use exptime_obs::EventKind;
use exptime_policy::TtlPolicy;
use exptime_sql::ast::{Expires, Literal, Statement, TtlClause};
use exptime_sql::unparse::statement_to_sql;
use exptime_wal::{
    committed_prefix, replay_plan, Checkpoint, FileStore, TableSnapshot, TruncationStats, Wal,
    WalRecord, WalStore,
};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// The live log attachment of a durable database: live state only — its
/// knobs stay in [`DbConfig::durability`].
pub(super) struct WalSession {
    wal: Wal,
    last_checkpoint_clock: u64,
    /// [`WalStatus::degraded`]: set by any failed write below, cleared by
    /// a successful checkpoint.
    degraded: bool,
    /// The statement transaction open on the log, if any.
    active_txn: Option<u64>,
    recovery: RecoveryStats,
}

impl WalSession {
    fn new(wal: Wal, recovery: RecoveryStats) -> Self {
        WalSession {
            wal,
            last_checkpoint_clock: recovery.checkpoint_clock,
            degraded: false,
            active_txn: None,
            recovery,
        }
    }

    /// Appends `rec` to the open transaction.
    fn append(&mut self, rec: &WalRecord) -> DbResult<()> {
        let res = self.wal.append(rec);
        self.check("append", res)
    }

    /// Appends `rec` and counts a commit toward group commit: the end of
    /// a statement's transaction, or a record that commits itself.
    fn commit(&mut self, rec: &WalRecord) -> DbResult<()> {
        let res = self.wal.append(rec).and_then(|()| self.wal.commit());
        self.check("commit", res)
    }

    fn sync(&mut self) -> DbResult<()> {
        let res = self.wal.sync();
        self.check("sync", res)
    }

    /// Writes `ck` and truncates the log: durable state is exactly `ck`
    /// again, so this is what heals a degraded session.
    fn checkpoint(&mut self, ck: &Checkpoint) -> DbResult<TruncationStats> {
        let res = self.wal.write_checkpoint(ck);
        let stats = self.check("checkpoint", res)?;
        self.last_checkpoint_clock = ck.clock;
        self.degraded = false;
        Ok(stats)
    }

    /// The outcome of one write: a failure degrades the session.
    fn check<T>(&mut self, what: &str, res: io::Result<T>) -> DbResult<T> {
        res.map_err(|e| {
            self.degraded = true;
            DbError::Wal(format!("{what}: {e}"))
        })
    }
}

impl Database {
    /// Opens (creating if needed) a durable database backed by a WAL
    /// directory, recovering committed state from the checkpoint and log
    /// first. `config.durability` must be [`Durability::Wal`].
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Wal`] for IO failures, a corrupt checkpoint, or
    /// a [`Durability::Volatile`] config; replay errors propagate.
    pub fn open(dir: impl AsRef<Path>, config: DbConfig) -> DbResult<Self> {
        let store = FileStore::open(dir).map_err(|e| DbError::Wal(format!("open: {e}")))?;
        Self::open_with_store(Box::new(store), config)
    }

    /// [`Database::open`] over any [`WalStore`] — the crash-injection
    /// tests use this with an `exptime_wal::MemStore`.
    ///
    /// # Errors
    ///
    /// As [`Database::open`].
    pub fn open_with_store(store: Box<dyn WalStore>, config: DbConfig) -> DbResult<Self> {
        let Durability::Wal { group_commit, .. } = config.durability else {
            return Err(DbError::Wal(
                "config.durability is Volatile; use Database::new".into(),
            ));
        };
        let mut db = Database::new(config);
        let mut wal = Wal::new(store, group_commit);
        wal.attach(db.metrics());
        // Recovery replays history verbatim — `_telemetry` DDL and rows
        // included — so it runs as the system.
        db.as_system(|db| db.recover(wal))?;
        // The recovered state's horizon, before the first advance.
        db.refresh_forecast_gauges();
        Ok(db)
    }

    /// Rebuilds what `wal`'s store holds — the checkpoint, then the log's
    /// committed prefix less the inserts already dead at the recovered
    /// clock — attaches `wal`, and checkpoints.
    fn recover(&mut self, mut wal: Wal) -> DbResult<()> {
        let mut span = self.tracer.span("recovery");
        let (ckpt, scan) = wal
            .read_state()
            .map_err(|e| DbError::Wal(format!("read state: {e}")))?;
        let base_clock = ckpt.as_ref().map_or(0, |c| c.clock);
        let checkpoint_rows = ckpt.as_ref().map_or(0, Checkpoint::live_rows);
        if let Some(ck) = &ckpt {
            self.apply_checkpoint(ck)?;
        }
        let (ops, skipped_uncommitted) = committed_prefix(&scan.records);
        let plan = replay_plan(ops, base_clock, true);
        for op in &plan.ops {
            self.apply_wal_op(op)?;
        }
        let now = self.clock.now().finite();
        let stats = RecoveryStats {
            checkpoint_clock: base_clock,
            checkpoint_rows,
            replayed: plan.ops.len() as u64,
            skipped_expired: plan.skipped_expired,
            skipped_uncommitted,
            torn_bytes: scan.torn_bytes,
            clock: now.unwrap_or(u64::MAX),
        };
        span.attr("replayed", stats.replayed);
        span.attr("skipped_expired", stats.skipped_expired);
        span.attr("torn_bytes", stats.torn_bytes);
        if let Some(t) = now {
            span.at(t);
        }
        drop(span);
        self.obs.emit_with(now, || EventKind::WalRecovery {
            at: stats.clock,
            replayed: stats.replayed,
            skipped_expired: stats.skipped_expired,
            skipped_uncommitted: stats.skipped_uncommitted,
            torn_bytes: stats.torn_bytes,
        });
        // Recovery-time forecast: records that were replayable but
        // already expired at the recovered clock are future work the
        // vacuum never sees — surface them next to the live horizon.
        self.metrics()
            .gauge("forecast.recovery_skipped_expired")
            .set(gauge_i64(stats.skipped_expired));
        self.wal = Some(WalSession::new(wal, stats));
        // End recovery with a checkpoint (ARIES restart does the same):
        // the torn tail is discarded, replayed history is compacted, and
        // the next crash recovers from a clean prefix.
        self.checkpoint()?;
        Ok(())
    }

    /// Rebuilds tables, clock, TTL policies and SQL-defined views from a
    /// checkpoint. Rows in a checkpoint are live (`texp > clock`), so
    /// inserting them at time 0 and then advancing to the checkpoint clock
    /// fires no spurious expirations.
    fn apply_checkpoint(&mut self, ck: &Checkpoint) -> DbResult<()> {
        for snap in &ck.tables {
            self.create_table(&snap.name, schema_of_columns(snap.columns.clone())?)?;
            let key = snap.name.to_ascii_lowercase();
            for (values, texp) in &snap.rows {
                self.redo(&key, values, |tuple| Change::Put { tuple, texp: *texp })?;
            }
        }
        if ck.clock > 0 {
            self.advance_to(Time::new(ck.clock));
        }
        for sql in &ck.view_sql {
            self.execute(sql)?;
        }
        Ok(())
    }

    /// Redoes one committed log record.
    fn apply_wal_op(&mut self, op: &WalRecord) -> DbResult<()> {
        match op {
            WalRecord::Insert {
                table,
                values,
                texp,
                ..
            } => self.redo(table, values, |tuple| Change::Put { tuple, texp: *texp }),
            WalRecord::Delete { table, values, .. } => {
                self.redo(table, values, |tuple| Change::Remove { tuple })
            }
            WalRecord::UpdateTexp {
                table,
                values,
                texp,
                ..
            } => self.redo(table, values, |tuple| Change::Retime { tuple, texp: *texp }),
            WalRecord::ClockAdvance { to } => {
                let target = Time::new(*to);
                if target > self.clock.now() {
                    self.advance_to(target);
                }
                Ok(())
            }
            WalRecord::Ddl { sql } => self.execute(sql).map(drop),
            WalRecord::TxnBegin { .. } | WalRecord::TxnCommit { .. } => Ok(()),
        }
    }

    /// Redoes one change to a row of table `key` through the same
    /// [`Database::apply`] that made it live. A redo is not this run's
    /// statement, so nothing is counted.
    fn redo(
        &mut self,
        key: &str,
        values: &[Value],
        change: impl FnOnce(&Tuple) -> Change<'_>,
    ) -> DbResult<()> {
        let tuple = Tuple::new(values.to_vec());
        self.apply(key, change(&tuple), |_| {}).map(drop)
    }

    /// Writes a checkpoint now: fsyncs the log, snapshots the clock plus
    /// every table's live rows, every TTL policy with a SQL spelling and
    /// every SQL-defined view, atomically replaces the checkpoint blob, and
    /// truncates the log. Clears the degraded flag — durable state is
    /// exactly in-memory state again; a failure sets it.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Wal`] on IO failure or for volatile databases.
    pub fn checkpoint(&mut self) -> DbResult<CheckpointStats> {
        let now = self.clock.now();
        let at = now.finite().unwrap_or(u64::MAX);
        let ck = Checkpoint {
            clock: at,
            tables: self
                .tables
                .iter()
                .map(|(name, table)| TableSnapshot {
                    name: name.clone(),
                    columns: columns(table.schema()),
                    rows: table
                        .scan_at(now)
                        .map(|(tuple, texp)| (tuple.values().to_vec(), texp))
                        .collect(),
                })
                .collect(),
            // TTL policies checkpoint as `ALTER TABLE … SET TTL …` DDL,
            // replayed (before the views) once the tables exist; policy
            // shapes with no SQL spelling are session-scoped by design.
            view_sql: self
                .tables
                .keys()
                .filter_map(|name| {
                    self.ttl_policy(name)
                        .filter(|p| !p.is_identity())
                        .and_then(|p| alter_ttl_sql(name, &p))
                })
                .chain(self.views.iter().filter_map(|(name, entry)| {
                    entry.create_stmt(name).map(|stmt| statement_to_sql(&stmt))
                }))
                .collect(),
        };
        let session = self
            .wal
            .as_mut()
            .ok_or_else(|| DbError::Wal("checkpoint on a volatile database".into()))?;
        let stats = session.checkpoint(&ck)?;
        let out = CheckpointStats {
            at,
            live_rows: stats.live_rows,
            reclaimed_bytes: stats.reclaimed_bytes,
            checkpoint_bytes: stats.checkpoint_bytes,
        };
        self.obs.emit_with(now.finite(), || EventKind::Checkpoint {
            at,
            live_rows: out.live_rows,
            log_bytes_reclaimed: out.reclaimed_bytes,
        });
        Ok(out)
    }

    /// WAL status, or `None` for a volatile database.
    #[must_use]
    pub fn wal_status(&self) -> Option<WalStatus> {
        let Durability::Wal {
            group_commit,
            checkpoint_every,
        } = self.config.durability
        else {
            return None;
        };
        self.wal.as_ref().map(|s| WalStatus {
            log_bytes: s.wal.log_len(),
            group_commit,
            checkpoint_every,
            last_checkpoint_clock: s.last_checkpoint_clock,
            degraded: s.degraded,
            recovery: Some(s.recovery),
        })
    }

    /// What recovery did when this database was opened, if it was opened
    /// from a WAL.
    #[must_use]
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.wal.as_ref().map(|s| s.recovery)
    }

    /// Forces an fsync of the log (beyond the group-commit cadence).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Wal`] on IO failure; no-op when volatile.
    pub fn wal_sync(&mut self) -> DbResult<()> {
        self.wal.as_mut().map_or(Ok(()), WalSession::sync)
    }

    /// Runs `body` as one statement-scoped WAL transaction: `TxnBegin`,
    /// the redo record of every change `body` applies, `TxnCommit` — the
    /// commit written even when `body` fails, since the changes it did
    /// apply must stay durable. A nested call joins the transaction
    /// already open.
    pub(super) fn wal_stmt<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> DbResult<T>,
    ) -> DbResult<T> {
        let owned = match self.wal.as_mut() {
            Some(s) if s.active_txn.is_none() => {
                let txn = s.wal.begin_txn();
                s.append(&WalRecord::TxnBegin { txn })?;
                s.active_txn = Some(txn);
                Some(txn)
            }
            _ => None,
        };
        let res = body(self);
        let (Some(txn), Some(s)) = (owned, self.wal.as_mut()) else {
            return res;
        };
        s.active_txn = None;
        s.commit(&WalRecord::TxnCommit { txn }).and(res)
    }

    /// Logs one applied change, built from the open statement
    /// transaction's id; nothing when no statement is open (volatile,
    /// recovering, or a write outside [`Database::wal_stmt`]).
    pub(super) fn wal_log_op(&mut self, build: impl FnOnce(u64) -> WalRecord) -> DbResult<()> {
        let Some(s) = self.wal.as_mut() else {
            return Ok(());
        };
        let Some(txn) = s.active_txn else {
            return Ok(());
        };
        s.append(&build(txn))
    }

    /// Logs a DDL statement as a record that commits itself. A volatile
    /// (or recovering) database logs nothing and never unparses.
    pub(super) fn log_ddl(&mut self, stmt: Statement) -> DbResult<()> {
        let Some(s) = self.wal.as_mut() else {
            return Ok(());
        };
        s.commit(&WalRecord::Ddl {
            sql: statement_to_sql(&stmt),
        })
    }

    /// Logs a clock advance and runs the automatic checkpoint cadence.
    /// Called from [`Database::advance_to`], which is infallible: a failed
    /// write here leaves the session degraded instead of propagating.
    pub(super) fn wal_after_advance(&mut self, to: Time) {
        let (Some(s), Some(to)) = (self.wal.as_mut(), to.finite()) else {
            return;
        };
        if s.commit(&WalRecord::ClockAdvance { to }).is_err() {
            return;
        }
        let Durability::Wal {
            checkpoint_every, ..
        } = self.config.durability
        else {
            return;
        };
        if checkpoint_every > 0 && to - s.last_checkpoint_clock >= checkpoint_every {
            // Cadence checkpoints are best-effort: a failure leaves the
            // log longer (and the session degraded), never the state wrong.
            let _ = self.checkpoint();
        }
    }

    /// Runs `body` as the engine itself rather than a user — recovery and
    /// restore replaying history, the telemetry sampler writing it. The
    /// `_telemetry` write guard stands down, and TTL policies, access
    /// touches and sampling are skipped: replayed rows carry their
    /// effective expirations, and replayed history carries its samples as
    /// rows. Expirations a replay fires are not this run's events, so a
    /// bracket that fired any leaves the trigger log empty (recovery and
    /// restore start from an empty database; the sampler never moves the
    /// clock).
    pub(super) fn as_system<T>(&mut self, body: impl FnOnce(&mut Self) -> T) -> T {
        let (was, fired) = (self.system_ctx, self.triggers.fired_count());
        self.system_ctx = true;
        let out = body(self);
        self.system_ctx = was;
        if self.triggers.fired_count() != fired {
            self.triggers.clear_log();
        }
        out
    }

    /// Serialises the database as a SQL script: every table's schema and
    /// live rows (with their absolute `EXPIRES AT` times), and every view
    /// that was created through SQL. The first line records the logical
    /// clock; [`Database::restore`] replays the script and advances the
    /// clock back to it.
    ///
    /// Not captured: expired-but-unvacuumed rows (semantically absent),
    /// triggers and constraints (runtime closures), API-created views
    /// (no SQL definition — emitted as comments), and engine statistics.
    #[must_use]
    pub fn dump_sql(&self) -> String {
        let now = self.clock.now();
        let mut out = format!(
            "-- exptime dump at t={}\n",
            now.finite().unwrap_or(u64::MAX)
        );
        for (name, table) in &self.tables {
            // TTL policies ride on the CREATE TABLE when expressible in
            // SQL; API-only shapes (maintenance windows, clamps without a
            // default TTL) are session-scoped and dumped as comments.
            let policy = self.ttl_policy(name).unwrap_or_default();
            let stmt = Statement::CreateTable {
                name: name.clone(),
                columns: columns(table.schema()),
                ttl: clause_of_policy(&policy),
            };
            out.push_str(&statement_to_sql(&stmt));
            out.push_str(";\n");
            if !policy.is_identity() && clause_of_policy(&policy).is_none() {
                out.push_str(&format!("-- ttl policy on {name} (API-only): {policy}\n"));
            }
            // Group live rows by expiration time: one INSERT per group.
            let mut by_texp: BTreeMap<Time, Vec<Vec<Literal>>> = BTreeMap::new();
            for (tuple, texp) in table.scan_at(now) {
                let row = tuple
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => Literal::Int(*i),
                        Value::Float(f) => Literal::Float(f.get()),
                        Value::Str(st) => Literal::Str(st.to_string()),
                        Value::Bool(b) => Literal::Bool(*b),
                    })
                    .collect();
                by_texp.entry(texp).or_default().push(row);
            }
            for (texp, rows) in by_texp {
                let stmt = Statement::Insert {
                    table: name.clone(),
                    rows,
                    expires: match texp.finite() {
                        Some(t) => Expires::At(t),
                        None => Expires::Never,
                    },
                };
                out.push_str(&statement_to_sql(&stmt));
                out.push_str(";\n");
            }
        }
        for (name, entry) in &self.views {
            out.push_str(&match entry.create_stmt(name) {
                Some(stmt) => format!("{};\n", statement_to_sql(&stmt)),
                // API-created: no SQL definition to replay.
                None => format!("-- view {name} (no SQL definition): {}\n", entry.expr()),
            });
        }
        out
    }

    /// Rebuilds a volatile database from a [`Database::dump_sql`] script.
    /// The logical clock is restored from the header, so expiration
    /// behaviour continues exactly where the dump left off.
    ///
    /// # Errors
    ///
    /// Returns catalog/SQL errors from replaying the script.
    pub fn restore(dump: &str) -> DbResult<Self> {
        // The header is the first *meaningful* line: leading blank lines
        // and ordinary `--` comments (hand-edited or concatenated dumps)
        // are tolerated; any SQL before the header is not.
        let clock = dump
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .take_while(|l| l.starts_with("--"))
            .find_map(|l| l.strip_prefix("-- exptime dump at t="))
            .and_then(|n| n.trim().parse::<u64>().ok())
            .ok_or_else(|| DbError::Catalog("missing `-- exptime dump at t=N` header".into()))?;
        let mut db = Database::new(DbConfig::default());
        // A dump legitimately contains `_telemetry` DDL and rows (its
        // history is data like any other), so it replays as the system.
        db.as_system(|db| -> DbResult<()> {
            db.execute_script(dump)?;
            // Rows in the dump were live (texp > clock), so advancing
            // fires no spurious expirations.
            db.advance_to(Time::new(clock));
            Ok(())
        })?;
        Ok(db)
    }
}

/// The `TTL …` clause spelling a policy, when it has one: a default TTL
/// is the clause's anchor, so TTL-less shapes (clamp-only policies,
/// maintenance windows) have no SQL spelling and return `None`.
pub(super) fn clause_of_policy(policy: &TtlPolicy) -> Option<TtlClause> {
    if policy.maintenance.is_some() {
        return None;
    }
    let ttl = policy.ttl.filter(|&d| d > 0)?;
    Some(TtlClause {
        ttl,
        sliding: policy.sliding,
        clamp: policy.clamp,
        span: exptime_sql::span::Span::DUMMY,
    })
}

/// `ALTER TABLE … SET TTL …` DDL for a non-identity policy with a SQL
/// spelling; `None` otherwise.
fn alter_ttl_sql(table: &str, policy: &TtlPolicy) -> Option<String> {
    let clause = clause_of_policy(policy)?;
    Some(statement_to_sql(&Statement::AlterTtl {
        table: table.to_string(),
        ttl: Some(clause),
    }))
}
