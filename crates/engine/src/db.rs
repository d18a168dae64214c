//! The database facade: clock, tables, views, triggers, constraints, SQL.
//!
//! A [`Database`] is a single-node expiration-time DBMS in the paper's
//! image:
//!
//! * a logical [`Clock`] drives everything — advancing it processes due
//!   expirations (eagerly per event time, or lazily on a vacuum cadence —
//!   Section 3.2) and fires expiration triggers;
//! * tables are `exptime-storage` [`Table`]s (expiration index + ordered
//!   secondary indexes);
//! * views are either *virtual* (planned per read) or *materialised*
//!   ([`MaterializedView`]s that maintain themselves independently of the
//!   base tables, per Theorems 1–3);
//! * SQL goes through `exptime-sql`; expiration times surface only in
//!   `INSERT … EXPIRES …` and `UPDATE … SET EXPIRES …`.
//!
//! A statement moves through a pipeline — dispatch → read → write → policy
//! touch → durability → maintenance — and this file is being cut along
//! it. Of those stages it still owns **dispatch** (`execute*`, the table
//! catalog and DDL), the query half of **read** (`select` → `evaluate`,
//! and `bill_query`, through which every read is counted and profiled),
//! **durability** (open/recovery, checkpoint, the `wal_*` bracket and
//! append helpers) and **maintenance** (`advance_to`, vacuum, the forecast
//! and the telemetry sampler), plus statement lint, the audit and
//! dump/restore. The child modules own the rest: `stored` is the tables as
//! the algebra's binding environment (what a read scans), `views` is the
//! view catalog and the view half of **read** — what a view is, how one is
//! inlined into a query, and how a materialised one is served — and `write`
//! is the **write** and **policy touch** stages — every change to a stored
//! row, live or redone, goes through its one `apply`.

use crate::constraint::{Constraint, ConstraintViolation};
use crate::durability::{CheckpointStats, Durability, RecoveryStats, WalSession, WalStatus};
use crate::telemetry::{TelemetryConfig, TelemetryStatus, TELEMETRY_HEALTH, TELEMETRY_METRICS};
use crate::trigger::{ExpirationEvent, TriggerFn, TriggerManager};
use exptime_core::algebra::{eval, eval_profiled, EvalOptions, Expr, Materialized, PlanProfile};
use exptime_core::materialize::{RefreshDecision, RefreshPolicy};
use exptime_core::relation::Relation;
use exptime_core::rewrite::TickBound;
use exptime_core::schema::Schema;
use exptime_core::time::{Clock, Time};
use exptime_core::tuple::Tuple;
use exptime_core::value::{Value, ValueType};
use exptime_obs::{
    AllocCounter, Counter, EventKind, Health, Histogram, HorizonForecast, MetricsRegistry, Obs,
    OperatorCost, ProfileStats, Profiler, QueryProfile, SloConfig, StalenessBound,
    StalenessMonitor, StormBucket, Tracer,
};
use exptime_policy::{MaintenanceWindow, Sliding, TtlPolicy};
use exptime_sql::ast::{Statement, TtlClause};
use exptime_sql::{plan_query, SchemaProvider, SqlError};
use exptime_storage::{IndexKind, Table};
use exptime_wal::{
    committed_prefix, replay_plan, Checkpoint, FileStore, TableSnapshot, Wal, WalRecord, WalStore,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

mod stored;
mod views;
mod write;
use views::{sliding_matview_diag, ViewEntry};
use write::Change;

/// How the engine physically removes expired base-table rows
/// (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Removal {
    /// Process expirations at every expiration event time as the clock
    /// passes it; triggers fire exactly at `texp`.
    #[default]
    Eager,
    /// Defer physical removal to a periodic vacuum; reads are unaffected
    /// (they filter by `texp > τ`), but triggers fire late and space is
    /// reclaimed late.
    Lazy {
        /// Vacuum cadence in ticks.
        vacuum_every: u64,
    },
}

/// Configuration for the expiration-horizon forecaster (DESIGN.md §8.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForecastConfig {
    /// Predicted expirations-per-tick above which a horizon bucket is a
    /// *storm*: every clock advance recomputes the forecast and emits a
    /// `storm_warning` event for each bucket whose rate `count / 2^k`
    /// strictly exceeds this. Zero means any non-empty bucket warns.
    pub storm_threshold: u64,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        // High enough that steady drip workloads stay quiet; a derived
        // zero would make every expiring tuple a "storm".
        ForecastConfig {
            storm_threshold: 64,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct DbConfig {
    /// Expiration index implementation for new tables.
    pub index: IndexKind,
    /// Removal policy.
    pub removal: Removal,
    /// Algebra evaluation options (aggregate expiration mode, …).
    pub eval: EvalOptions,
    /// Refresh policy for materialised views.
    pub view_refresh: RefreshPolicy,
    /// Run the cost-gated rewriter (`exptime_core::cost::optimize`) on
    /// query expressions before evaluation. The rewrite is
    /// semantics-preserving; the cost model keeps it only when it reduces
    /// estimated fragility/work (paper Section 3.1).
    pub optimize: bool,
    /// Service-level objectives watched by the staleness monitor
    /// ([`Database::health`]): trigger punctuality and refresh latency.
    pub slo: SloConfig,
    /// Durability mode. [`Durability::Volatile`] databases are built with
    /// [`Database::new`]; [`Durability::Wal`] databases with
    /// [`Database::open`] / [`Database::open_with_store`], which recover
    /// from the log before serving.
    pub durability: Durability,
    /// Expiration-horizon forecasting (storm detection threshold).
    pub forecast: ForecastConfig,
    /// Self-hosted telemetry sampling into the reserved `_telemetry`
    /// schema, with retention expressed as expiration times
    /// (DESIGN.md §8.5). Off by default.
    pub telemetry: TelemetryConfig,
}

/// A point-in-time forecast of the database's future expiration load:
/// the merged [`HorizonForecast`] across all tables, each table's own
/// horizon, each materialised view's ticks-until-refresh, and any
/// buckets exceeding the configured storm threshold. Built by
/// [`Database::forecast`]; rendered by the CLI's `\forecast`.
#[derive(Debug, Clone)]
pub struct DbForecast {
    /// Logical instant the forecast is anchored at.
    pub now: u64,
    /// Storm threshold in effect (predicted expirations per tick).
    pub threshold: u64,
    /// Merged horizon across every table.
    pub horizon: HorizonForecast,
    /// Per-table horizons, in name order.
    pub tables: Vec<(String, HorizonForecast)>,
    /// Each materialised view's predicted refresh deadline: ticks until
    /// its `texp` forces a refresh decision, or `None` when eternal.
    pub views: Vec<(String, Option<u64>)>,
    /// Buckets of the merged horizon whose predicted expirations-per-tick
    /// rate exceeds [`DbForecast::threshold`].
    pub storms: Vec<StormBucket>,
}

impl DbForecast {
    /// Renders the forecast for humans: the merged load curve, per-table
    /// and per-view summaries, and storm warnings last.
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = self.horizon.render(width);
        for (name, f) in &self.tables {
            let _ = writeln!(
                out,
                "table {name}: {} expiring, {} eternal",
                f.expiring(),
                f.eternal()
            );
        }
        for (name, due) in &self.views {
            match due {
                Some(d) => {
                    let _ = writeln!(out, "view {name}: refresh due in {d} tick(s)");
                }
                None => {
                    let _ = writeln!(out, "view {name}: eternal (no expiration-forced refresh)");
                }
            }
        }
        for s in &self.storms {
            let _ = writeln!(
                out,
                "STORM [+{},+{}]: {} predicted expirations (> {}/tick)",
                s.lo, s.hi, s.predicted, self.threshold
            );
        }
        out
    }
}

/// Aggregate engine statistics — a point-in-time snapshot of the `db.*`
/// counters in the database's [`MetricsRegistry`] (see [`Database::obs`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Rows inserted.
    pub inserts: u64,
    /// Rows explicitly deleted.
    pub deletes: u64,
    /// Rows removed by expiration.
    pub expired: u64,
    /// Queries evaluated successfully. Every evaluation counts exactly
    /// once, whichever door it came through: SQL `SELECT`, a direct
    /// [`Database::query_expr`], a [`Database::read_view`], or an
    /// [`Database::explain_analyze`]. Failed evaluations do not count.
    pub queries: u64,
    /// Vacuum passes run (lazy removal).
    pub vacuums: u64,
}

/// Registry-backed handles behind [`DbStats`]. The counters are the source
/// of truth; `DbStats` is what [`Database::stats`] snapshots from them.
#[derive(Debug, Clone)]
struct DbCounters {
    inserts: Counter,
    deletes: Counter,
    expired: Counter,
    queries: Counter,
    vacuums: Counter,
    /// Latency of successful query evaluations, nanoseconds.
    query_ns: Histogram,
    /// Latency of successful inserts, nanoseconds.
    insert_ns: Histogram,
}

/// Global `policy.*` counters: every table's policy activity summed.
#[derive(Debug, Clone)]
struct PolicyCounters {
    /// Sliding touches that actually re-armed a row (`texp` moved).
    sliding_touches: Counter,
    /// Writes/touches whose requested expiration the clamp or maintenance
    /// window displaced.
    clamped: Counter,
}

impl PolicyCounters {
    fn in_registry(registry: &MetricsRegistry) -> Self {
        PolicyCounters {
            sliding_touches: registry.counter("policy.sliding_touches"),
            clamped: registry.counter("policy.clamped"),
        }
    }
}

/// One table's TTL policy plus its per-table counters.
#[derive(Debug, Clone)]
struct TablePolicy {
    policy: TtlPolicy,
    /// `policy.<table>.sliding_touches`.
    sliding_touches: Counter,
    /// `policy.<table>.clamped`.
    clamped: Counter,
}

impl TablePolicy {
    fn in_registry(registry: &MetricsRegistry, table: &str, policy: TtlPolicy) -> Self {
        TablePolicy {
            policy,
            sliding_touches: registry.counter(&format!("policy.{table}.sliding_touches")),
            clamped: registry.counter(&format!("policy.{table}.clamped")),
        }
    }
}

/// One row of [`Database::policy_status`] (the CLI's `\policy status`).
#[derive(Debug, Clone)]
pub struct PolicyStatus {
    /// Table name (lowercased catalog key).
    pub table: String,
    /// The effective policy (identity for tables without one).
    pub policy: TtlPolicy,
    /// Sliding touches that re-armed a row of this table.
    pub sliding_touches: u64,
    /// Writes/touches this table's clamp or maintenance window displaced.
    pub clamped: u64,
    /// Live rows right now.
    pub live_rows: u64,
}

impl DbCounters {
    fn in_registry(registry: &MetricsRegistry) -> Self {
        DbCounters {
            inserts: registry.counter("db.inserts"),
            deletes: registry.counter("db.deletes"),
            expired: registry.counter("db.expired"),
            queries: registry.counter("db.queries"),
            vacuums: registry.counter("db.vacuums"),
            query_ns: registry.histogram("db.query_ns"),
            insert_ns: registry.histogram("db.insert_ns"),
        }
    }

    fn snapshot(&self) -> DbStats {
        DbStats {
            inserts: self.inserts.get(),
            deletes: self.deletes.get(),
            expired: self.expired.get(),
            queries: self.queries.get(),
            vacuums: self.vacuums.get(),
        }
    }
}

/// Engine errors.
#[derive(Debug)]
pub enum DbError {
    /// SQL lexing/parsing/planning failed.
    Sql(SqlError),
    /// A core data-model error.
    Core(exptime_core::error::Error),
    /// A constraint rejected an insertion.
    Constraint(ConstraintViolation),
    /// Catalog-level problem (duplicate/missing table or view, …).
    Catalog(String),
    /// A remote peer (replica link) refused the operation: the link was
    /// explicitly down or partitioned at the time of the call.
    Unavailable(String),
    /// A sync operation exhausted its retry/timeout budget: the work was
    /// attempted but no acknowledgement arrived within `waited` logical
    /// ticks.
    Timeout {
        /// What was being synchronised (view refresh, digest exchange, …).
        op: String,
        /// Logical ticks spent waiting before giving up.
        waited: u64,
    },
    /// The write-ahead log failed (IO error, corrupt checkpoint, or a
    /// durability API used on a [`Durability::Volatile`] database).
    Wal(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Sql(e) => write!(f, "{e}"),
            DbError::Core(e) => write!(f, "{e}"),
            DbError::Constraint(v) => write!(f, "{v}"),
            DbError::Catalog(m) => write!(f, "{m}"),
            DbError::Unavailable(m) => write!(f, "unavailable: {m}"),
            DbError::Timeout { op, waited } => {
                write!(f, "timeout: {op} gave up after {waited} tick(s)")
            }
            DbError::Wal(m) => write!(f, "wal: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<SqlError> for DbError {
    fn from(e: SqlError) -> Self {
        DbError::Sql(e)
    }
}
impl From<exptime_core::error::Error> for DbError {
    fn from(e: exptime_core::error::Error) -> Self {
        DbError::Core(e)
    }
}
impl From<ConstraintViolation> for DbError {
    fn from(e: ConstraintViolation) -> Self {
        DbError::Constraint(e)
    }
}

/// Engine result alias.
pub type DbResult<T> = Result<T, DbError>;

/// The outcome of executing one SQL statement.
#[derive(Debug)]
pub enum ExecResult {
    /// Query rows (with per-tuple expiration times attached, though they
    /// are not query-accessible attributes).
    Rows(Relation),
    /// Number of rows affected by DML.
    Affected(usize),
    /// DDL succeeded for the named object.
    Ok(String),
}

impl ExecResult {
    /// The rows, if this was a query.
    #[must_use]
    pub fn rows(&self) -> Option<&Relation> {
        match self {
            ExecResult::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// The affected-row count, if DML.
    #[must_use]
    pub fn affected(&self) -> Option<usize> {
        match self {
            ExecResult::Affected(n) => Some(*n),
            _ => None,
        }
    }
}

/// The result of [`Database::explain_analyze`]: an annotated, actually
/// executed plan (EXPLAIN ANALYZE in the PostgreSQL sense, on the
/// expiration-time algebra).
#[derive(Debug)]
pub struct Explain {
    /// Per-operator profile of the executed plan.
    pub profile: PlanProfile,
    /// `(view, decision)` for every materialised view the query touched,
    /// refreshed at this instant — the observable form of Theorems 1–3.
    pub decisions: Vec<(String, RefreshDecision)>,
    /// Rows in the final result.
    pub rows: usize,
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.profile.render().trim_end())?;
        for (view, decision) in &self.decisions {
            writeln!(f, "view {view}: {decision}")?;
        }
        write!(f, "result: {} rows", self.rows)
    }
}

/// A single-node expiration-time database.
pub struct Database {
    config: DbConfig,
    clock: Clock,
    tables: BTreeMap<String, Table>,
    views: BTreeMap<String, ViewEntry>,
    triggers: TriggerManager,
    constraints: HashMap<String, Vec<Constraint>>,
    last_vacuum: Time,
    /// Per-table TTL policies (keyed like `tables`). Tables without an
    /// entry run the paper's pure absolute-`texp` semantics.
    policies: HashMap<String, TablePolicy>,
    obs: Obs,
    counters: DbCounters,
    policy_counters: PolicyCounters,
    tracer: Tracer,
    monitor: StalenessMonitor,
    /// Always-on statement profiler (scalar totals every statement,
    /// per-operator detail on the sampling cadence).
    profiler: Profiler,
    /// Logical-allocation shim drained into each statement's profile.
    alloc: AllocCounter,
    /// Rows the statement's scans lent the evaluator, drained likewise.
    scanned: AtomicU64,
    /// Attached write-ahead log, when opened with [`Durability::Wal`].
    /// `None` both for volatile databases and *during* recovery replay
    /// (so replayed operations are not re-logged).
    wal: Option<WalSession>,
    /// True while the engine itself is executing statements: WAL
    /// recovery replay, dump restore, and the telemetry sampler. Lifts
    /// the `_telemetry` reserved-schema write guard and suppresses
    /// sampling (replayed history must reproduce the original run's
    /// samples as rows, not synthesise new ones).
    system_ctx: bool,
    /// Logical instant of the last telemetry sample.
    telemetry_last_sample: Option<u64>,
    /// Samples taken by this process (not by replayed history).
    telemetry_samples: u64,
    /// Stale-serving endpoint registered by an attached net server, so
    /// [`Database::audit`] can reason about degraded reads.
    serving: Option<exptime_lint::StaleServing>,
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("now", &self.clock.now())
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .field("views", &self.views.keys().collect::<Vec<_>>())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new(DbConfig::default())
    }
}

impl Database {
    /// Creates an empty database at time 0.
    #[must_use]
    pub fn new(config: DbConfig) -> Self {
        let obs = Obs::new();
        let counters = DbCounters::in_registry(obs.registry());
        let policy_counters = PolicyCounters::in_registry(obs.registry());
        let tracer = Tracer::attached(&obs);
        let monitor = StalenessMonitor::new(&obs, config.slo);
        Database {
            config,
            clock: Clock::new(),
            tables: BTreeMap::new(),
            views: BTreeMap::new(),
            triggers: TriggerManager::new(),
            constraints: HashMap::new(),
            last_vacuum: Time::ZERO,
            policies: HashMap::new(),
            obs,
            counters,
            policy_counters,
            tracer,
            monitor,
            profiler: Profiler::default(),
            alloc: AllocCounter::new(),
            scanned: AtomicU64::new(0),
            wal: None,
            system_ctx: false,
            telemetry_last_sample: None,
            telemetry_samples: 0,
            serving: None,
        }
    }

    // ------------------------------------------------------------------
    // Durability: open, recovery, checkpoint
    // ------------------------------------------------------------------

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
        let Durability::Wal {
            group_commit,
            checkpoint_every,
            expiration_aware,
        } = config.durability
        else {
            return Err(DbError::Wal(
                "config.durability is Volatile; use Database::new".into(),
            ));
        };
        let mut db = Database::new(config);
        // Recovery replays history verbatim — including `_telemetry`
        // DDL/rows — so the reserved-schema guard must stand down and
        // the sampler must not synthesise new samples mid-replay.
        db.system_ctx = true;
        let mut wal = Wal::new(store, group_commit);
        wal.attach(db.metrics());

        let mut span = db.tracer.span("recovery");
        let (ckpt, scan) = wal
            .read_state()
            .map_err(|e| DbError::Wal(format!("read state: {e}")))?;
        let base_clock = ckpt.as_ref().map_or(0, |c| c.clock);
        let checkpoint_rows = ckpt.as_ref().map_or(0, Checkpoint::live_rows);
        if let Some(ck) = &ckpt {
            db.apply_checkpoint(ck)?;
        }
        let max_txn = scan
            .records
            .iter()
            .filter_map(|r| match r {
                WalRecord::TxnBegin { txn }
                | WalRecord::TxnCommit { txn }
                | WalRecord::Insert { txn, .. }
                | WalRecord::Delete { txn, .. }
                | WalRecord::UpdateTexp { txn, .. } => Some(*txn),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let (ops, skipped_uncommitted) = committed_prefix(&scan.records);
        let plan = replay_plan(ops, base_clock, expiration_aware);
        let replayed = plan.ops.len() as u64;
        for op in &plan.ops {
            db.apply_wal_op(op)?;
        }
        // Replayed history fired expiration events into the trigger log;
        // they are not *this* run's events.
        db.triggers.clear_log();
        let stats = RecoveryStats {
            checkpoint_clock: base_clock,
            checkpoint_rows,
            replayed,
            skipped_expired: plan.skipped_expired,
            skipped_uncommitted,
            torn_bytes: scan.torn_bytes,
            clock: db.clock.now().finite().unwrap_or(u64::MAX),
        };
        span.attr("replayed", stats.replayed);
        span.attr("skipped_expired", stats.skipped_expired);
        span.attr("torn_bytes", stats.torn_bytes);
        if let Some(t) = db.clock.now().finite() {
            span.at(t);
        }
        drop(span);
        db.obs
            .emit_with(db.clock.now().finite(), || EventKind::WalRecovery {
                at: stats.clock,
                replayed: stats.replayed,
                skipped_expired: stats.skipped_expired,
                skipped_uncommitted: stats.skipped_uncommitted,
                torn_bytes: stats.torn_bytes,
            });

        // Recovery-time forecast: records that were replayable but
        // already expired at the recovered clock are future work the
        // vacuum never sees — surface them next to the live horizon.
        db.metrics()
            .gauge("forecast.recovery_skipped_expired")
            .set(gauge_i64(stats.skipped_expired));
        wal.bump_txn(max_txn);
        db.wal = Some(WalSession {
            wal,
            checkpoint_every,
            expiration_aware,
            last_checkpoint_clock: base_clock,
            degraded: false,
            active_txn: None,
            recovery: Some(stats),
        });
        // End recovery with a checkpoint (ARIES restart does the same):
        // the torn tail is discarded, replayed history is compacted, and
        // the next crash recovers from a clean prefix.
        db.checkpoint()?;
        db.system_ctx = false;
        // The recovered state's horizon, before the first advance.
        db.refresh_forecast_gauges();
        Ok(db)
    }

    /// Rebuilds tables, clock, and SQL-defined views from a checkpoint.
    /// Rows in a checkpoint are live (`texp > clock`), so inserting them
    /// at time 0 and then advancing to the checkpoint clock fires no
    /// spurious expirations.
    fn apply_checkpoint(&mut self, ck: &Checkpoint) -> DbResult<()> {
        for snap in &ck.tables {
            let schema = Schema::new(
                snap.columns
                    .iter()
                    .map(|(n, ty)| exptime_core::schema::Attribute::new(n.clone(), *ty))
                    .collect(),
            )?;
            self.create_table(&snap.name, schema)?;
            let key = snap.name.to_ascii_lowercase();
            for (values, texp) in &snap.rows {
                let tuple = &Tuple::new(values.clone());
                self.apply(&key, Change::Put { tuple, texp: *texp }, |_| {})?;
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

    /// Redoes one committed log record. The data records go through the
    /// same [`Database::apply`] that logged them; it runs with
    /// `self.wal == None`, so nothing here re-logs, and a redo is not this
    /// run's statement, so nothing is counted.
    fn apply_wal_op(&mut self, op: &WalRecord) -> DbResult<()> {
        match op {
            WalRecord::Insert {
                table,
                values,
                texp,
                ..
            } => {
                let tuple = &Tuple::new(values.clone());
                self.apply(table, Change::Put { tuple, texp: *texp }, |_| {})?;
            }
            WalRecord::Delete { table, values, .. } => {
                let tuple = &Tuple::new(values.clone());
                self.apply(table, Change::Remove { tuple }, |_| {})?;
            }
            WalRecord::UpdateTexp {
                table,
                values,
                texp,
                ..
            } => {
                let tuple = &Tuple::new(values.clone());
                self.apply(table, Change::Retime { tuple, texp: *texp }, |_| {})?;
            }
            WalRecord::ClockAdvance { to } => {
                let target = Time::new(*to);
                if target > self.clock.now() {
                    self.advance_to(target);
                }
            }
            WalRecord::Ddl { sql } => {
                self.execute(sql)?;
            }
            WalRecord::TxnBegin { .. } | WalRecord::TxnCommit { .. } => {}
        }
        Ok(())
    }

    /// Writes a checkpoint now: fsyncs the log, snapshots the clock plus
    /// every table's live rows and every SQL-defined view, atomically
    /// replaces the checkpoint blob, and truncates the log. Clears the
    /// degraded flag — durable state is exactly in-memory state again.
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
                    columns: table
                        .schema()
                        .attributes()
                        .iter()
                        .map(|a| (a.name.clone(), a.ty))
                        .collect(),
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
                .chain(
                    self.views
                        .iter()
                        .filter_map(|(name, entry)| entry.create_sql(name)),
                )
                .collect(),
        };
        let session = self
            .wal
            .as_mut()
            .ok_or_else(|| DbError::Wal("checkpoint on a volatile database".into()))?;
        let stats = session
            .wal
            .write_checkpoint(&ck)
            .map_err(|e| DbError::Wal(format!("checkpoint: {e}")))?;
        session.last_checkpoint_clock = at;
        session.degraded = false;
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
        self.wal.as_ref().map(|s| WalStatus {
            log_bytes: s.wal.log_len(),
            group_commit: match self.config.durability {
                Durability::Wal { group_commit, .. } => group_commit,
                Durability::Volatile => 1,
            },
            checkpoint_every: s.checkpoint_every,
            expiration_aware: s.expiration_aware,
            last_checkpoint_clock: s.last_checkpoint_clock,
            degraded: s.degraded,
            recovery: s.recovery,
        })
    }

    /// What recovery did when this database was opened, if it was opened
    /// from a WAL.
    #[must_use]
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.wal.as_ref().and_then(|s| s.recovery)
    }

    /// Forces an fsync of the log (beyond the group-commit cadence).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Wal`] on IO failure; no-op when volatile.
    pub fn wal_sync(&mut self) -> DbResult<()> {
        if let Some(s) = self.wal.as_mut() {
            s.wal.sync().map_err(|e| {
                s.degraded = true;
                DbError::Wal(format!("sync: {e}"))
            })?;
        }
        Ok(())
    }

    /// Runs `body` as one statement-scoped WAL transaction: `TxnBegin`,
    /// the redo record of every change `body` applies, `TxnCommit`. A
    /// nested call joins the transaction already open.
    fn wal_stmt<T>(&mut self, body: impl FnOnce(&mut Self) -> DbResult<T>) -> DbResult<T> {
        let owned = self.wal_stmt_begin()?;
        let res = body(self);
        self.wal_stmt_end(owned).and(res)
    }

    /// Opens a statement-scoped WAL transaction if none is active.
    /// Returns whether this call owns (and must commit) it.
    fn wal_stmt_begin(&mut self) -> DbResult<bool> {
        let Some(s) = self.wal.as_mut() else {
            return Ok(false);
        };
        if s.active_txn.is_some() {
            return Ok(false);
        }
        let txn = s.wal.begin_txn();
        s.wal.append(&WalRecord::TxnBegin { txn }).map_err(|e| {
            s.degraded = true;
            DbError::Wal(format!("append: {e}"))
        })?;
        s.active_txn = Some(txn);
        Ok(true)
    }

    /// Commits the statement's WAL transaction (when `owned`). Written
    /// even after a statement error: the engine's statements are not
    /// atomic, so the operations that did apply must stay durable.
    fn wal_stmt_end(&mut self, owned: bool) -> DbResult<()> {
        if !owned {
            return Ok(());
        }
        let Some(s) = self.wal.as_mut() else {
            return Ok(());
        };
        let Some(txn) = s.active_txn.take() else {
            return Ok(());
        };
        s.wal
            .append(&WalRecord::TxnCommit { txn })
            .and_then(|()| s.wal.commit())
            .map_err(|e| {
                s.degraded = true;
                DbError::Wal(format!("commit: {e}"))
            })
    }

    /// Logs one applied operation under the active statement transaction.
    fn wal_log_op(&mut self, build: impl FnOnce(u64) -> WalRecord) -> DbResult<()> {
        let Some(s) = self.wal.as_mut() else {
            return Ok(());
        };
        let Some(txn) = s.active_txn else {
            return Ok(());
        };
        s.wal.append(&build(txn)).map_err(|e| {
            s.degraded = true;
            DbError::Wal(format!("append: {e}"))
        })
    }

    /// Logs a self-committing DDL record (counts toward group commit).
    /// Callers gate on [`self.wal.is_some()`] so the SQL string is only
    /// built for durable databases.
    fn wal_log_ddl(&mut self, sql: String) -> DbResult<()> {
        let Some(s) = self.wal.as_mut() else {
            return Ok(());
        };
        s.wal
            .append(&WalRecord::Ddl { sql })
            .and_then(|()| s.wal.commit())
            .map_err(|e| {
                s.degraded = true;
                DbError::Wal(format!("ddl: {e}"))
            })
    }

    /// Logs a clock advance and runs the automatic checkpoint cadence.
    /// Called from [`Database::advance_to`], which is infallible: WAL
    /// errors here mark the session degraded instead of propagating.
    fn wal_after_advance(&mut self, to: Time) {
        let Some(to_u) = to.finite() else { return };
        let due = match self.wal.as_mut() {
            None => return,
            Some(s) => {
                if let Err(_e) = s
                    .wal
                    .append(&WalRecord::ClockAdvance { to: to_u })
                    .and_then(|()| s.wal.commit())
                {
                    s.degraded = true;
                    return;
                }
                s.checkpoint_every > 0 && to_u - s.last_checkpoint_clock >= s.checkpoint_every
            }
        };
        if due {
            // Cadence checkpoints are best-effort: a failure leaves the
            // log longer (and the session degraded), never the state wrong.
            if let Err(_e) = self.checkpoint() {
                if let Some(s) = self.wal.as_mut() {
                    s.degraded = true;
                }
            }
        }
    }

    /// The current logical time `τ`.
    #[must_use]
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Engine statistics (a snapshot of the `db.*` registry counters).
    #[must_use]
    pub fn stats(&self) -> DbStats {
        self.counters.snapshot()
    }

    /// The engine's observability handle: its [`MetricsRegistry`] (every
    /// `db.*`, `storage.<table>.*`, and `view.<name>.*` metric) and event
    /// stream. Install a sink (e.g. [`exptime_obs::RingSink`]) to watch
    /// expirations, trigger firings, vacuum passes, clock advances, view
    /// refresh decisions, and optimizer rewrites as they happen.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Shorthand for `self.obs().registry()`.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        self.obs.registry()
    }

    /// The engine's [`Tracer`]. Disabled by default (spans cost one
    /// relaxed load); call `db.tracer().enable()` to record the query
    /// pipeline (parse → plan → rewrite → eval → view refresh) and
    /// storage expiry passes as hierarchical spans.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The always-on statement profiler's aggregate: scalar totals for
    /// every statement, per-operator detail from the sampling cadence.
    /// The CLI's `\profile` renders this.
    #[must_use]
    pub fn profile_stats(&self) -> ProfileStats {
        self.profiler.snapshot()
    }

    /// The statement profiler handle (shared — clones see the same
    /// aggregate), for embedders that want to reset between phases.
    #[must_use]
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// A health snapshot: per-view time-to-expiration (from materialised
    /// `texp` — Theorems 1–3), SLO breach counts, and latency/lateness
    /// distributions. Refreshes the staleness gauges first, so the report
    /// reflects *this* instant even if the clock has not moved since the
    /// last advance.
    #[must_use]
    pub fn health(&self) -> Health {
        self.observe_view_staleness();
        self.monitor.health()
    }

    /// Forecasts future expiration load: every table's expiry index is
    /// folded into log₂ horizon buckets (`[now + 2^k, now + 2^(k+1))`),
    /// materialised views report their predicted refresh deadlines, and
    /// buckets denser than [`ForecastConfig::storm_threshold`] per tick
    /// are flagged as storms. Everything here is *computable today*
    /// because a tuple's future visibility is a pure function of its
    /// expiration time — the paper's central observation, pointed
    /// forward.
    #[must_use]
    pub fn forecast(&self) -> DbForecast {
        let now_t = self.clock.now();
        let now = now_t.finite().unwrap_or(u64::MAX);
        let mut horizon = HorizonForecast::new(now);
        let mut tables = Vec::new();
        for (name, table) in &self.tables {
            let f = table.expiry_horizon(now_t);
            horizon.merge(&f);
            tables.push((name.clone(), f));
        }
        let views = self
            .views
            .iter()
            .filter_map(|(name, entry)| {
                let due = entry.materialized()?.texp().finite();
                Some((name.clone(), due.map(|t| t.saturating_sub(now))))
            })
            .collect();
        let threshold = self.config.forecast.storm_threshold;
        let storms = horizon.storms(threshold);
        DbForecast {
            now,
            threshold,
            horizon,
            tables,
            views,
            storms,
        }
    }

    /// Re-derives the `forecast.*` gauges from a fresh horizon scan and
    /// emits a `storm_warning` event per storming bucket. Runs once per
    /// [`Database::advance_to`] call — the same cadence as the staleness
    /// gauges — and once after WAL recovery.
    fn refresh_forecast_gauges(&self) {
        let fc = self.forecast();
        let reg = self.metrics();
        reg.gauge("forecast.live")
            .set(gauge_i64(fc.horizon.total()));
        reg.gauge("forecast.expiring")
            .set(gauge_i64(fc.horizon.expiring()));
        reg.gauge("forecast.eternal")
            .set(gauge_i64(fc.horizon.eternal()));
        reg.gauge("forecast.due_64")
            .set(gauge_i64(fc.horizon.due_within(64)));
        reg.gauge("forecast.storm_buckets")
            .set(gauge_i64(fc.storms.len() as u64));
        for (name, f) in &fc.tables {
            reg.gauge(&format!("storage.{name}.forecast_expiring"))
                .set(gauge_i64(f.expiring()));
        }
        for (name, due) in &fc.views {
            // -1 marks an eternal view: no expiration ever forces it.
            reg.gauge(&format!("view.{name}.refresh_due_in"))
                .set(due.map_or(-1, gauge_i64));
        }
        for s in &fc.storms {
            self.obs
                .emit_with(Some(fc.now), || EventKind::StormWarning {
                    lo: s.lo,
                    hi: s.hi,
                    predicted: s.predicted,
                    threshold: fc.threshold,
                    at: fc.now,
                });
        }
    }

    /// The trigger manager (register callbacks, read the event log).
    pub fn triggers(&mut self) -> &mut TriggerManager {
        &mut self.triggers
    }

    /// Registers an expiration trigger on a table.
    pub fn on_expire(
        &mut self,
        table: impl Into<String>,
        name: impl Into<String>,
        callback: TriggerFn,
    ) {
        self.triggers.on_expire(table, name, callback);
    }

    /// Adds a constraint to a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Catalog`] for an unknown table.
    pub fn add_constraint(&mut self, table: &str, constraint: Constraint) -> DbResult<()> {
        let key = table.to_ascii_lowercase();
        if !self.tables.contains_key(&key) {
            return Err(DbError::Catalog(format!("unknown table `{table}`")));
        }
        self.constraints.entry(key).or_default().push(constraint);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Advances the clock by `delta` ticks, processing expirations per the
    /// removal policy. Returns the new time.
    pub fn tick(&mut self, delta: u64) -> Time {
        let target = self.clock.now() + delta;
        self.advance_to(target);
        target
    }

    /// Advances the clock to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is in the past or `∞` (clocks only move forward
    /// through finite instants).
    pub fn advance_to(&mut self, target: Time) {
        let from = self.clock.now();
        let mut span = self.tracer.span("clock.advance");
        span.attr("from", from);
        span.attr("to", target);
        if let Some(t) = target.finite() {
            span.at(t);
        }
        if target > from {
            self.obs
                .emit_with(target.finite(), || EventKind::ClockAdvance {
                    from: from.finite().unwrap_or(u64::MAX),
                    to: target.finite().unwrap_or(u64::MAX),
                });
        }
        match self.config.removal {
            Removal::Eager => {
                // Step through each expiration event so triggers fire at
                // their exact times.
                loop {
                    let next = self
                        .tables
                        .values_mut()
                        .filter_map(Table::next_expiration)
                        .min();
                    match next {
                        Some(t) if t <= target => {
                            self.clock.advance_to(t);
                            self.expire_all(t, t);
                        }
                        _ => break,
                    }
                }
                self.clock.advance_to(target);
            }
            Removal::Lazy { vacuum_every } => {
                self.clock.advance_to(target);
                let due = target
                    .finite()
                    .zip(self.last_vacuum.finite())
                    .is_some_and(|(t, v)| t - v >= vacuum_every);
                if due {
                    self.vacuum();
                }
            }
        }
        drop(span);
        if target > from {
            self.wal_after_advance(target);
        }
        // Every clock advance re-derives the per-view time-to-expiration
        // gauges from the materialised texp values (no sampling needed —
        // the paper's machinery makes staleness predictable), then the
        // forward-looking horizon: forecast gauges and storm warnings.
        // Once per advance_to *call*, not per tick — `tick(1024)` pays
        // for one horizon scan.
        self.observe_view_staleness();
        self.refresh_forecast_gauges();
        // Telemetry sampling rides the same cadence: persist the freshly
        // refreshed gauges as expiring history rows when a sample is due.
        self.maybe_sample_telemetry();
    }

    /// Runs a vacuum pass now: physically removes expired rows from every
    /// table and fires their triggers (with `fired_at = now`, possibly
    /// after `texp` — the lazy-removal fidelity gap).
    pub fn vacuum(&mut self) {
        let now = self.clock.now();
        let mut span = self.tracer.span("db.vacuum");
        if let Some(t) = now.finite() {
            span.at(t);
        }
        let removed = self.expire_all(now, now);
        span.attr("removed", removed);
        self.last_vacuum = now;
        self.counters.vacuums.inc();
        self.obs.emit_with(now.finite(), || EventKind::VacuumPass {
            at: now.finite().unwrap_or(u64::MAX),
            removed,
        });
    }

    fn expire_all(&mut self, tau: Time, fired_at: Time) -> u64 {
        let mut removed = 0;
        for (name, table) in &mut self.tables {
            for (tuple, texp) in table.expire_due(tau) {
                self.counters.expired.inc();
                removed += 1;
                let (texp_u, fired_u) = (
                    texp.finite().unwrap_or(u64::MAX),
                    fired_at.finite().unwrap_or(u64::MAX),
                );
                self.obs
                    .emit_with(fired_at.finite(), || EventKind::TupleExpired {
                        table: name.clone(),
                        texp: texp_u,
                        fired_at: fired_u,
                    });
                self.triggers.fire(ExpirationEvent {
                    table: name.clone(),
                    tuple,
                    texp,
                    fired_at,
                });
                self.obs
                    .emit_with(fired_at.finite(), || EventKind::TriggerFired {
                        table: name.clone(),
                        texp: texp_u,
                        fired_at: fired_u,
                    });
                // SLO: lazy removal fires triggers late by design; the
                // monitor decides whether this crossed the threshold.
                self.monitor.observe_trigger(name, texp_u, fired_u);
            }
        }
        removed
    }

    // ------------------------------------------------------------------
    // Tables and direct DML
    // ------------------------------------------------------------------

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Catalog`] if the name is taken.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> DbResult<()> {
        self.guard_reserved(name, "CREATE TABLE")?;
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(DbError::Catalog(format!("`{name}` already exists")));
        }
        let mut table = Table::new(key.clone(), schema, self.config.index);
        table.attach_obs(&self.obs);
        table.attach_tracer(&self.tracer);
        self.tables.insert(key.clone(), table);
        if self.wal.is_some() {
            let sql = exptime_sql::unparse::statement_to_sql(&Statement::CreateTable {
                name: key.clone(),
                columns: self.tables[&key]
                    .schema()
                    .attributes()
                    .iter()
                    .map(|a| (a.name.clone(), a.ty))
                    .collect(),
                // Any TTL policy is set after creation and logged as its
                // own ALTER record (see [`Database::set_ttl_policy`]).
                ttl: None,
            });
            self.wal_log_ddl(sql)?;
        }
        Ok(())
    }

    /// Drops a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Catalog`] for an unknown table or one referenced
    /// by a view.
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        self.guard_reserved(name, "DROP TABLE")?;
        let key = name.to_ascii_lowercase();
        if let Some((vname, _)) = self.views_over(&key).next() {
            return Err(DbError::Catalog(format!(
                "cannot drop `{name}`: view `{vname}` depends on it"
            )));
        }
        self.policies.remove(&key);
        self.tables
            .remove(&key)
            .ok_or_else(|| DbError::Catalog(format!("unknown table `{name}`")))?;
        if self.wal.is_some() {
            let sql = exptime_sql::unparse::statement_to_sql(&Statement::DropTable { name: key });
            self.wal_log_ddl(sql)?;
        }
        Ok(())
    }

    /// Direct access to a table (e.g. to create secondary indexes). A
    /// row written through it bypasses policies, constraints and the
    /// `db.*` counters and is **not logged** — it is lost on recovery —
    /// but materialised views do see it: the table itself counts its
    /// writes ([`Table::write_version`]).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Catalog`] for an unknown table.
    pub fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::Catalog(format!("unknown table `{name}`")))
    }

    /// Immutable access to a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Catalog`] for an unknown table.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::Catalog(format!("unknown table `{name}`")))
    }

    // ------------------------------------------------------------------
    // TTL policies (DESIGN.md §13)
    // ------------------------------------------------------------------

    /// Sets `table`'s TTL policy (an identity policy clears it) — the API
    /// twin of `ALTER TABLE … SET TTL …`.
    ///
    /// Durable databases log the change as DDL when the policy has a SQL
    /// spelling (it needs a default TTL); API-only shapes — maintenance
    /// windows, clamps without a TTL — are session-scoped, like triggers
    /// and constraints. Setting a sliding policy under an existing
    /// materialised view emits a `W102` lint event per dependent view:
    /// every touch bumps the base's write version and forces a refresh,
    /// voiding the paper's monotone-`texp` maintenance assumption.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Catalog`] for unknown or reserved tables.
    pub fn set_ttl_policy(&mut self, table: &str, policy: TtlPolicy) -> DbResult<()> {
        self.guard_reserved(table, "ALTER TABLE")?;
        let key = table.to_ascii_lowercase();
        if !self.tables.contains_key(&key) {
            return Err(DbError::Catalog(format!("unknown table `{table}`")));
        }
        if policy.is_identity() {
            self.policies.remove(&key);
        } else if let Some(tp) = self.policies.get_mut(&key) {
            tp.policy = policy;
        } else {
            let tp = TablePolicy::in_registry(self.obs.registry(), &key, policy);
            self.policies.insert(key.clone(), tp);
        }
        // A policy change invalidates every bound the last audit proved
        // (loosening a clamp can admit longer-lived rows than the proof
        // covered). Clear them; the next audit re-derives.
        self.monitor.set_staleness_bounds(std::iter::empty());
        let at = self.clock.now().finite();
        self.obs.emit_with(at, || EventKind::PolicyChange {
            table: key.clone(),
            policy: policy.to_string(),
            at: at.unwrap_or(u64::MAX),
        });
        if policy.sliding != Sliding::Absolute {
            let kept = self
                .views_over(&key)
                .filter(|(_, e)| e.materialized().is_some());
            for (view, _) in kept {
                self.publish_diagnostics(view, &[sliding_matview_diag(&key, view)]);
            }
        }
        if self.wal.is_some() {
            let sql = if policy.is_identity() {
                Some(exptime_sql::unparse::statement_to_sql(
                    &Statement::AlterTtl {
                        table: key,
                        ttl: None,
                    },
                ))
            } else {
                alter_ttl_sql(&key, &policy)
            };
            if let Some(sql) = sql {
                self.wal_log_ddl(sql)?;
            }
        }
        Ok(())
    }

    /// The table's TTL policy, if one is set.
    #[must_use]
    pub fn ttl_policy(&self, table: &str) -> Option<TtlPolicy> {
        self.policies
            .get(&table.to_ascii_lowercase())
            .map(|tp| tp.policy)
    }

    /// Installs (or, with `None`, lifts) a maintenance window on `table`'s
    /// policy: expirations that would land inside `[start, end)` are
    /// deferred to `end`, so the removal storm fires after the window.
    /// Windows are API-only (no SQL spelling) and session-scoped.
    ///
    /// # Errors
    ///
    /// As [`Database::set_ttl_policy`].
    pub fn set_maintenance_window(
        &mut self,
        table: &str,
        window: Option<MaintenanceWindow>,
    ) -> DbResult<()> {
        let mut policy = self.ttl_policy(table).unwrap_or_default();
        policy.maintenance = window;
        self.set_ttl_policy(table, policy)
    }

    /// One row per table: its effective policy (identity when none is
    /// set), the live `policy.<table>.*` counter values, and the live row
    /// count. Backs `SHOW TTL` and the CLI's `\policy status`.
    #[must_use]
    pub fn policy_status(&self) -> Vec<PolicyStatus> {
        let now = self.clock.now();
        self.tables
            .iter()
            .map(|(name, t)| {
                let tp = self.policies.get(name);
                PolicyStatus {
                    table: name.clone(),
                    policy: tp.map(|tp| tp.policy).unwrap_or_default(),
                    sliding_touches: tp.map_or(0, |tp| tp.sliding_touches.get()),
                    clamped: tp.map_or(0, |tp| tp.clamped.get()),
                    live_rows: t.live_count(now) as u64,
                }
            })
            .collect()
    }

    fn exec_show_ttl(&self, table: Option<&str>) -> DbResult<ExecResult> {
        use exptime_core::schema::Attribute;
        let schema = Schema::new(vec![
            Attribute::new("table".to_string(), ValueType::Str),
            Attribute::new("policy".to_string(), ValueType::Str),
            Attribute::new("sliding_touches".to_string(), ValueType::Int),
            Attribute::new("clamped".to_string(), ValueType::Int),
            Attribute::new("live_rows".to_string(), ValueType::Int),
        ])?;
        let statuses = match table {
            Some(t) => {
                let key = t.to_ascii_lowercase();
                if !self.tables.contains_key(&key) {
                    return Err(DbError::Catalog(format!("unknown table `{t}`")));
                }
                self.policy_status()
                    .into_iter()
                    .filter(|s| s.table == key)
                    .collect()
            }
            None => self.policy_status(),
        };
        let as_int = |n: u64| Value::Int(i64::try_from(n).unwrap_or(i64::MAX));
        let rel = Relation::from_rows(
            schema,
            statuses.into_iter().map(|s| {
                (
                    Tuple::new(vec![
                        Value::str(s.table.as_str()),
                        Value::str(s.policy.to_string().as_str()),
                        as_int(s.sliding_touches),
                        as_int(s.clamped),
                        as_int(s.live_rows),
                    ]),
                    Time::INFINITY,
                )
            }),
        )?;
        Ok(ExecResult::Rows(rel))
    }

    // ------------------------------------------------------------------
    // Querying
    // ------------------------------------------------------------------

    /// Evaluates an algebra expression at the current time. View names in
    /// the expression are inlined first.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn query_expr(&mut self, expr: &Expr) -> DbResult<Materialized> {
        Ok(self.evaluate(expr, false)?.0)
    }

    /// Evaluates a planned SQL `SELECT` — what [`Database::execute`] does
    /// with one, and what the wire server calls: plan, evaluate, apply
    /// `ORDER BY`/`LIMIT`, then the sliding-on-access touches. `texp` and
    /// `validity` describe the expression *before* `LIMIT`: a truncated
    /// result must not be expired forward, because a cut row would move up.
    ///
    /// # Errors
    ///
    /// Returns plan, evaluation and (for touches) WAL errors.
    pub fn select(&mut self, query: &exptime_sql::ast::Query) -> DbResult<Materialized> {
        let expr = {
            let _sp = self.tracer.span("plan");
            plan_query(query, &*self)?
        };
        let mut m = self.query_expr(&expr)?;
        m.rel = apply_presentation(m.rel, query)?;
        // Sliding-on-access policies see the read *after* the result is
        // computed: this query observes the pre-touch state; only future
        // visibility is extended.
        self.apply_access_touches(query)?;
        Ok(m)
    }

    /// The one read path (DESIGN.md §8.1). Every way a query reaches the
    /// algebra — [`Database::select`] (so `execute` and the wire server),
    /// [`Database::query_expr`] (so `\plan`), virtual-view reads and
    /// EXPLAIN ANALYZE — runs this: inline views, optionally rewrite,
    /// evaluate over the borrowed tables at the pinned `τ` under the
    /// `query`/`eval` spans, count, and bill the profiler.
    ///
    /// `explain` asks for the full report: the materialised views the
    /// query names are refreshed first, so it carries the decision an
    /// ordinary read would make at this instant (Theorem 1/2/3 or
    /// recompute); every operator is profiled, not just on the profiler's
    /// sampling cadence; and the profile is grafted under the `eval`
    /// span, so the span tree's leaves are the EXPLAIN ANALYZE rows.
    fn evaluate(
        &mut self,
        expr: &Expr,
        explain: bool,
    ) -> DbResult<(Materialized, Option<Explain>)> {
        self.bill_query(None, |db| {
            let now = db.clock.now();
            let mut decisions = Vec::new();
            if explain {
                for key in expr.base_names().iter().map(|n| n.to_ascii_lowercase()) {
                    let kept = db.views.get(&key).and_then(ViewEntry::materialized);
                    if kept.is_some() {
                        if let (_, Some(d)) = db.read_materialized(&key)? {
                            decisions.push((key, d));
                        }
                    }
                }
            }
            let expr = db.prepare_expr(expr);
            let mut eval_sp = db.tracer.span("eval");
            let (m, profile) = if explain || db.profiler.next_is_sampled() {
                let (m, profile) = eval_profiled(&expr, &*db, now, &db.config.eval)?;
                (m, Some(profile))
            } else {
                (eval(&expr, &*db, now, &db.config.eval)?, None)
            };
            if let (true, Some(profile)) = (explain && eval_sp.is_recording(), &profile) {
                let (id, at) = (eval_sp.id(), now.finite());
                let end_ns = db.tracer.now_ns();
                let start_ns = end_ns.saturating_sub(duration_ns(profile.elapsed));
                graft_profile(&db.tracer, id, profile, start_ns, end_ns, at);
            }
            eval_sp.attr("rows_out", m.rel.len());
            eval_sp.attr("texp", m.texp);
            drop(eval_sp);
            let bill = QueryProfile {
                // The profiler keeps a label only with per-operator detail.
                label: profile
                    .as_ref()
                    .map_or_else(String::new, |_| expr.to_string()),
                tuples_materialized: m.rel.len() as u64,
                change_points: expr.node_count() as u64,
                operators: profile.as_ref().map_or_else(Vec::new, flatten_profile),
                ..QueryProfile::default()
            };
            let report = profile.filter(|_| explain).map(|profile| Explain {
                profile,
                decisions,
                rows: m.rel.len(),
            });
            Ok(((m, report), bill))
        })
    }

    /// Runs `run` as one billed query: under the `query` span, counted in
    /// `db.queries` / `db.query_ns`, and recorded by the profiler. `run`
    /// returns its result with the part of the bill only it knows — label,
    /// rows out, change points, per-operator detail; what is measured
    /// around it — scan tallies, patch-queue work (views are inlined, so
    /// only a view read or an explain's refreshes can have done any), wall
    /// time — is filled in here.
    fn bill_query<T>(
        &mut self,
        view: Option<&str>,
        run: impl FnOnce(&mut Self) -> DbResult<(T, QueryProfile)>,
    ) -> DbResult<T> {
        let start = Instant::now();
        let mut root = self.tracer.span("query");
        if let Some(view) = view {
            root.attr("view", view);
        }
        if let Some(t) = self.clock.now().finite() {
            root.at(t);
        }
        self.take_scan_tallies();
        let patches_before = self.patches_applied_total();
        let (out, bill) = run(self)?;
        root.attr("rows", bill.tuples_materialized);
        self.counters.queries.inc();
        let elapsed = start.elapsed();
        self.counters.query_ns.record_duration(elapsed);
        let (rows_scanned, allocations) = self.take_scan_tallies();
        self.profiler.record(QueryProfile {
            rows_scanned,
            patch_ops: self.patches_applied_total() - patches_before,
            allocations,
            wall_ns: duration_ns(elapsed),
            ..bill
        });
        Ok(out)
    }

    /// `(rows_scanned, allocations)`: the rows scans have lent the
    /// evaluator since the last call, and how many of them it kept. A read
    /// calls this as it starts — dropping what unprofiled evaluations (a
    /// view's creation, a replica's own `eval`) left behind — and as it
    /// ends, for its bill.
    fn take_scan_tallies(&self) -> (u64, u64) {
        (self.scanned.swap(0, Ordering::Relaxed), self.alloc.take())
    }

    /// Inlines views and (when configured) runs the cost-gated rewriter,
    /// emitting a [`EventKind::RewriteApplied`] event when the plan
    /// actually changed.
    fn prepare_expr(&mut self, expr: &Expr) -> Expr {
        let expr = self.inline_views(expr);
        if self.config.optimize {
            let mut sp = self.tracer.span("rewrite");
            let rewritten = exptime_core::cost::optimize(&expr, &*self, self.clock.now());
            sp.attr("applied", rewritten != expr);
            if rewritten != expr {
                self.obs
                    .emit_with(self.clock.now().finite(), || EventKind::RewriteApplied {
                        rule: "cost_gated_rewrite".into(),
                        detail: format!("{expr} => {rewritten}"),
                    });
            }
            rewritten
        } else {
            expr
        }
    }

    /// The schema of a table or view, for external planners (e.g. the
    /// CLI's `\plan`).
    ///
    /// # Errors
    ///
    /// Returns a plan error for unknown names.
    pub fn schema_of_relation(&self, name: &str) -> Result<Schema, SqlError> {
        self.schema_of(name)
    }

    // ------------------------------------------------------------------
    // Static analysis (exptime-lint)
    // ------------------------------------------------------------------

    /// Runs the static expiration-soundness analyzer over a statement
    /// *without executing it*: `SELECT` queries and `CREATE [MATERIALIZED]
    /// VIEW` statements are planned (view names inlined) and checked
    /// against the paper's results. See DESIGN.md §11 for the code
    /// registry. Bare `SELECT`s are analysed as materialisation
    /// candidates, since that is the question the analyzer answers.
    ///
    /// # Errors
    ///
    /// Returns SQL parse/plan errors, and [`DbError::Catalog`] for
    /// statements that are neither `SELECT` nor `CREATE VIEW`.
    pub fn lint(&self, sql: &str) -> DbResult<exptime_lint::LintReport> {
        let stmt = exptime_sql::parse(sql)?;
        let (query, materialized) = match &stmt {
            Statement::Select(query) => (query, true),
            Statement::CreateView {
                query,
                materialized,
                ..
            } => (query, *materialized),
            _ => {
                return Err(DbError::Catalog(
                    "lint expects a SELECT or CREATE [MATERIALIZED] VIEW statement".into(),
                ))
            }
        };
        let expr = plan_query(query, self)?;
        let expr = self.inline_views(&expr);
        let opts = self.analyzer_options(materialized);
        Ok(exptime_lint::analyze(Some(query), &expr, &opts))
    }

    /// How the analyzer should read a plan under this configuration.
    fn analyzer_options(&self, materialized: bool) -> exptime_lint::AnalyzerOptions {
        exptime_lint::AnalyzerOptions {
            materialized,
            patch_root_difference: self.config.eval.patch_root_difference,
            schrodinger: self.config.eval.eq12_validity,
        }
    }

    /// Publishes analyzer findings about `subject`: one `lint_diagnostic`
    /// event each, and the `lint.diagnostics` counter (which exists only
    /// once something has been found).
    fn publish_diagnostics(&self, subject: &str, diagnostics: &[exptime_lint::Diagnostic]) {
        let at = self.clock.now().finite();
        for d in diagnostics {
            self.obs.emit_with(at, || EventKind::LintDiagnostic {
                code: d.code.to_string(),
                severity: d.severity.to_string(),
                subject: subject.to_string(),
            });
        }
        if !diagnostics.is_empty() {
            let found = self.obs.registry().counter("lint.diagnostics");
            found.add(diagnostics.len() as u64);
        }
    }

    /// [`Database::lint`] rendered with source excerpts and caret lines —
    /// the output behind the CLI's `\lint` and `EXPLAIN LINT`.
    ///
    /// # Errors
    ///
    /// Same as [`Database::lint`].
    pub fn explain_lint(&self, sql: &str) -> DbResult<String> {
        let report = self.lint(sql)?;
        Ok(exptime_lint::render(&report, sql))
    }

    // ------------------------------------------------------------------
    // Whole-database audit (exptime-audit, DESIGN.md §11.1)
    // ------------------------------------------------------------------

    /// Registers (or, with `None`, clears) the stale-serving endpoint a
    /// net server exposes over this database, so [`Database::audit`] can
    /// reason about degraded reads. Called by `NetServer::serve`.
    pub fn set_serving_config(&mut self, serving: Option<exptime_lint::StaleServing>) {
        self.serving = serving;
    }

    /// The registered stale-serving endpoint, if any.
    #[must_use]
    pub fn serving_config(&self) -> Option<&exptime_lint::StaleServing> {
        self.serving.as_ref()
    }

    /// The staleness bound the last audit registered for `subject`
    /// (a view or endpoint name), if still in force.
    #[must_use]
    pub fn staleness_bound(&self, subject: &str) -> Option<StalenessBound> {
        self.monitor.staleness_bound(subject)
    }

    /// Flattens the engine into the audit's dependency graph: every base
    /// table with its policy and observed live-row horizon, every view
    /// with the soundness of its inlined plan, the telemetry retention,
    /// and the stale-serving endpoint when one is registered.
    #[must_use]
    pub fn audit_graph(&self) -> exptime_lint::AuditGraph {
        let now_t = self.clock.now();
        let now = now_t.finite().unwrap_or(u64::MAX);
        let mut graph = exptime_lint::AuditGraph::empty(now);
        for (name, table) in &self.tables {
            let mut horizon = TickBound::ZERO;
            for (_, texp) in table.scan_at(now_t) {
                horizon = horizon.join(match texp.finite() {
                    Some(t) => TickBound::Finite(t.saturating_sub(now)),
                    None => TickBound::Unbounded,
                });
            }
            graph.tables.push(exptime_lint::TableNode {
                name: name.clone(),
                policy: self.policies.get(name).map(|tp| tp.policy),
                live_horizon: horizon,
            });
        }
        for (name, entry) in &self.views {
            let expr = self.inline_views(entry.expr());
            let bases = expr
                .base_names()
                .iter()
                .map(|b| b.to_ascii_lowercase())
                .collect();
            // Direct FROM-list references (tables *or* views) — the
            // view-on-view edges. API-built views carry no definition.
            let deps = entry.definition().map_or_else(Vec::new, |q| {
                std::iter::once(&q.body)
                    .chain(q.compound.iter().map(|(_, b)| b))
                    .flat_map(|b| b.from.iter())
                    .map(|n| n.to_ascii_lowercase())
                    .collect()
            });
            graph.views.push(exptime_lint::ViewNode {
                name: name.clone(),
                materialized: entry.materialized().is_some(),
                soundness: expr.soundness(),
                bases,
                deps,
            });
        }
        if self.config.telemetry.enabled {
            graph.telemetry = Some(exptime_lint::TelemetryNode {
                retention: self.config.telemetry.retention,
                sample_every: self.config.telemetry.sample_every,
            });
        }
        graph.serving = self.serving.clone();
        graph
    }

    /// Runs the whole-database staleness audit (`EXPLAIN AUDIT` /
    /// `\audit`): derives a provable worst-case staleness bound per view
    /// and per serving endpoint by abstract interpretation over the
    /// dependency graph, and registers every derived bound with the SLO
    /// monitor as a `view.<subject>.staleness_bound` gauge. Bounds with
    /// `exact`/`proven` evidence are *enforced*: if a later observation
    /// ever exceeds one, the monitor emits an `audit_violation` event —
    /// that means an analyzer bug, clock misuse, or raw
    /// [`Database::table_mut`] writes that bypassed the policy layer.
    ///
    /// Bounds reflect the catalog at audit time; policy changes clear
    /// them (re-run the audit after `ALTER TABLE … SET TTL`).
    #[must_use]
    pub fn audit(&self) -> exptime_lint::AuditReport {
        let mut sp = self.tracer.span("audit");
        let at = self.clock.now().finite();
        if let Some(t) = at {
            sp.at(t);
        }
        let report = exptime_lint::audit(&self.audit_graph());
        // Views are observed by name; endpoints have no `ttx` gauge to
        // check, so their bounds are gauges only.
        let bounds = report
            .views
            .iter()
            .map(|v| {
                (
                    v.name.clone(),
                    StalenessBound {
                        bound: v.bound.finite(),
                        enforced: v.basis <= exptime_lint::BoundBasis::Proven,
                    },
                )
            })
            .chain(report.endpoints.iter().map(|e| {
                (
                    e.name.clone(),
                    StalenessBound {
                        bound: e.bound.finite(),
                        enforced: false,
                    },
                )
            }));
        self.monitor.set_staleness_bounds(bounds);
        self.publish_diagnostics("audit", &report.lint.diagnostics);
        report
    }

    // ------------------------------------------------------------------
    // EXPLAIN ANALYZE
    // ------------------------------------------------------------------

    /// Plans and profiles a SQL `SELECT`: evaluates it for real, returning
    /// a per-operator breakdown (rows in/out, expired-filtered, elapsed)
    /// plus the refresh decisions of every materialised view the query
    /// touched. Counts as one query.
    ///
    /// # Errors
    ///
    /// Returns SQL errors, [`DbError::Catalog`] for non-SELECT statements,
    /// and evaluation errors.
    pub fn explain_analyze(&mut self, sql: &str) -> DbResult<Explain> {
        let stmt = {
            let _sp = self.tracer.span("parse");
            exptime_sql::parse(sql)?
        };
        let Statement::Select(query) = stmt else {
            return Err(DbError::Catalog(
                "EXPLAIN ANALYZE expects a SELECT statement".into(),
            ));
        };
        let expr = {
            let _sp = self.tracer.span("plan");
            plan_query(&query, &*self)?
        };
        self.explain_analyze_expr(&expr)
    }

    /// [`Database::explain_analyze`] over an algebra expression (view
    /// names are inlined, like [`Database::query_expr`]).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn explain_analyze_expr(&mut self, expr: &Expr) -> DbResult<Explain> {
        let (_, explain) = self.evaluate(expr, true)?;
        Ok(explain.expect("evaluate(.., true) reports"))
    }

    // ------------------------------------------------------------------
    // Dump / restore
    // ------------------------------------------------------------------

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
        use exptime_sql::ast::{Expires, Literal, Statement as Stmt};
        use exptime_sql::unparse::statement_to_sql;

        let now = self.clock.now();
        let mut out = format!(
            "-- exptime dump at t={}\n",
            now.finite().expect("clock is finite")
        );
        for (name, table) in &self.tables {
            // TTL policies ride on the CREATE TABLE when expressible in
            // SQL; API-only shapes (maintenance windows, clamps without a
            // default TTL) are session-scoped and dumped as comments.
            let policy = self.ttl_policy(name).unwrap_or_default();
            let stmt = Stmt::CreateTable {
                name: name.clone(),
                columns: table
                    .schema()
                    .attributes()
                    .iter()
                    .map(|a| (a.name.clone(), a.ty))
                    .collect(),
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
                let stmt = Stmt::Insert {
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
            out.push_str(&match entry.create_sql(name) {
                Some(sql) => format!("{sql};\n"),
                // API-created: no SQL definition to replay.
                None => format!("-- view {name} (no SQL definition): {}\n", entry.expr()),
            });
        }
        out
    }

    /// Rebuilds a database from a [`Database::dump_sql`] script, with the
    /// given configuration. The logical clock is restored from the
    /// header, so expiration behaviour continues exactly where the dump
    /// left off.
    ///
    /// # Errors
    ///
    /// Returns catalog/SQL errors from replaying the script.
    pub fn restore_with(dump: &str, config: DbConfig) -> DbResult<Self> {
        let mut db = Database::new(config);
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
        // A dump legitimately contains `_telemetry` DDL and rows (its
        // history is data like any other); replay them in system context.
        db.system_ctx = true;
        let replayed = db.execute_script(dump);
        db.system_ctx = false;
        replayed?;
        // Rows in the dump were live (texp > clock), so advancing fires
        // no spurious expirations.
        db.advance_to(Time::new(clock));
        db.triggers.clear_log();
        Ok(db)
    }

    /// [`Database::restore_with`] under the default configuration.
    ///
    /// # Errors
    ///
    /// As [`Database::restore_with`].
    pub fn restore(dump: &str) -> DbResult<Self> {
        Database::restore_with(dump, DbConfig::default())
    }

    // ------------------------------------------------------------------
    // SQL
    // ------------------------------------------------------------------

    /// Executes one SQL statement.
    ///
    /// # Errors
    ///
    /// Returns SQL, schema, constraint, or catalog errors.
    pub fn execute(&mut self, sql: &str) -> DbResult<ExecResult> {
        let stmt = {
            let _sp = self.tracer.span("parse");
            exptime_sql::parse(sql)?
        };
        self.execute_statement(stmt)
    }

    /// Executes a sequence of `;`-separated SQL statements, returning the
    /// last result.
    ///
    /// # Errors
    ///
    /// As [`Database::execute`]; execution stops at the first error.
    pub fn execute_script(&mut self, sql: &str) -> DbResult<ExecResult> {
        let stmts = exptime_sql::parse_many(sql)?;
        let mut last = ExecResult::Ok("empty script".into());
        for stmt in stmts {
            last = self.execute_statement(stmt)?;
        }
        Ok(last)
    }

    /// Executes one parsed statement — [`Database::execute`] without the
    /// parse, for callers (the wire server) that already hold the AST.
    ///
    /// # Errors
    ///
    /// As [`Database::execute`].
    pub fn execute_statement(&mut self, stmt: Statement) -> DbResult<ExecResult> {
        let res = self.execute_statement_inner(stmt);
        // Statement boundaries are the sampler's second hook (clock
        // advances being the first): long stretches of DML between ticks
        // still leave history once a sample is due.
        self.maybe_sample_telemetry();
        res
    }

    fn execute_statement_inner(&mut self, stmt: Statement) -> DbResult<ExecResult> {
        let mut root = self.tracer.span("sql");
        if let Some(t) = self.clock.now().finite() {
            root.at(t);
        }
        root.attr("stmt", stmt.kind());
        match stmt {
            Statement::CreateTable { name, columns, ttl } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(n, t)| exptime_core::schema::Attribute::new(n, t))
                        .collect(),
                )?;
                self.create_table(&name, schema)?;
                if let Some(clause) = ttl {
                    self.set_ttl_policy(&name, policy_of_clause(&clause))?;
                }
                Ok(ExecResult::Ok(format!("created table {name}")))
            }
            Statement::DropTable { name } => {
                self.drop_table(&name)?;
                Ok(ExecResult::Ok(format!("dropped table {name}")))
            }
            Statement::CreateView {
                name,
                materialized,
                query,
            } => {
                let expr = plan_query(&query, &*self)?;
                self.create_view_inner(&name, expr, Some(query), materialized)?;
                Ok(ExecResult::Ok(format!("created view {name}")))
            }
            Statement::DropView { name } => {
                self.drop_view(&name)?;
                Ok(ExecResult::Ok(format!("dropped view {name}")))
            }
            Statement::Insert {
                table,
                rows,
                expires,
            } => self.wal_stmt(|db| db.exec_insert(&table, rows, expires)),
            Statement::Delete { table, predicate } => {
                self.wal_stmt(|db| db.exec_delete(&table, predicate.as_ref()))
            }
            Statement::UpdateExpiration {
                table,
                expires,
                predicate,
            } => self.wal_stmt(|db| db.exec_update_expiration(&table, expires, predicate.as_ref())),
            Statement::AlterTtl { table, ttl } => {
                let policy = ttl.map_or_else(TtlPolicy::default, |c| policy_of_clause(&c));
                self.set_ttl_policy(&table, policy)?;
                Ok(ExecResult::Ok(format!(
                    "table {table}: {}",
                    self.ttl_policy(&table).unwrap_or_default()
                )))
            }
            Statement::ShowTtl { table } => self.exec_show_ttl(table.as_deref()),
            Statement::Audit => Ok(ExecResult::Ok(self.audit().render())),
            Statement::Select(query) => Ok(ExecResult::Rows(self.select(&query)?.rel)),
        }
    }

    // ------------------------------------------------------------------
    // Telemetry plane (DESIGN.md §8.5)
    // ------------------------------------------------------------------

    /// Rejects user writes to the reserved `_telemetry` schema. Stands
    /// down in system context (recovery replay, dump restore, and the
    /// sampler itself); reads are always allowed.
    fn guard_reserved(&self, name: &str, action: &str) -> DbResult<()> {
        if !self.system_ctx && crate::telemetry::is_reserved(name) {
            return Err(DbError::Catalog(format!(
                "{action} on `{name}`: the `_telemetry` schema is reserved for the \
                 engine's own telemetry history (read it with SELECT)"
            )));
        }
        Ok(())
    }

    /// Sampler status: configuration, samples taken by this process, and
    /// the live row counts of the `_telemetry` history tables (which
    /// shrink by expiration alone as retention elapses).
    #[must_use]
    pub fn telemetry_status(&self) -> TelemetryStatus {
        let now = self.clock.now();
        let live = |name: &str| {
            self.tables
                .get(name)
                .map_or(0, |t| t.live_count(now) as u64)
        };
        TelemetryStatus {
            enabled: self.config.telemetry.enabled,
            sample_every: self.config.telemetry.sample_every,
            retention: self.config.telemetry.retention,
            samples: self.telemetry_samples,
            last_sample_at: self.telemetry_last_sample,
            metrics_rows: live(TELEMETRY_METRICS),
            health_rows: live(TELEMETRY_HEALTH),
        }
    }

    /// Samples metrics/health into `_telemetry.*` when one is due. Never
    /// fails the calling statement: sampling errors increment
    /// `telemetry.sample_errors` and are swallowed.
    fn maybe_sample_telemetry(&mut self) {
        if !self.config.telemetry.enabled || self.system_ctx {
            return;
        }
        let Some(now) = self.clock.now().finite() else {
            return;
        };
        let every = self.config.telemetry.sample_every.max(1);
        let due = self
            .telemetry_last_sample
            .map_or(true, |last| now.saturating_sub(last) >= every);
        if !due {
            return;
        }
        self.telemetry_last_sample = Some(now);
        self.system_ctx = true;
        let res = self.sample_telemetry(now);
        self.system_ctx = false;
        match res {
            Ok(rows) => {
                self.telemetry_samples += 1;
                let retention = self.config.telemetry.retention;
                self.metrics().counter("telemetry.samples").inc();
                self.metrics().counter("telemetry.rows").add(rows);
                self.metrics()
                    .gauge("telemetry.last_sample_at")
                    .set(gauge_i64(now));
                self.obs
                    .emit_with(Some(now), || EventKind::TelemetrySample {
                        at: now,
                        rows,
                        retention,
                    });
            }
            Err(_) => {
                self.metrics().counter("telemetry.sample_errors").inc();
            }
        }
    }

    /// One sample: ensure the `_telemetry` tables exist, then insert the
    /// registry snapshot, the SLO monitor's view, and the horizon
    /// forecast as rows with `texp = now + retention`. Every write goes
    /// through the ordinary insert path — one WAL statement transaction
    /// for the whole sample, group-committed like user data — and
    /// retention is nothing but the rows' expiration times: no deletion
    /// code exists anywhere in this path.
    fn sample_telemetry(&mut self, now: u64) -> DbResult<u64> {
        use exptime_core::schema::Attribute;
        let retention = self.config.telemetry.retention.max(1);
        let texp = Time::new(now.saturating_add(retention));
        if !self.tables.contains_key(TELEMETRY_METRICS) {
            self.create_table(
                TELEMETRY_METRICS,
                Schema::new(vec![
                    Attribute::new("ts", ValueType::Int),
                    Attribute::new("kind", ValueType::Str),
                    Attribute::new("name", ValueType::Str),
                    Attribute::new("value", ValueType::Float),
                ])?,
            )?;
        }
        if !self.tables.contains_key(TELEMETRY_HEALTH) {
            self.create_table(
                TELEMETRY_HEALTH,
                Schema::new(vec![
                    Attribute::new("ts", ValueType::Int),
                    Attribute::new("status", ValueType::Str),
                    Attribute::new("views", ValueType::Int),
                    Attribute::new("stale", ValueType::Int),
                    Attribute::new("breaches", ValueType::Int),
                    Attribute::new("live", ValueType::Int),
                    Attribute::new("expiring", ValueType::Int),
                    Attribute::new("eternal", ValueType::Int),
                    Attribute::new("due64", ValueType::Int),
                    Attribute::new("storms", ValueType::Int),
                ])?,
            )?;
        }
        let ts = gauge_i64(now);
        let counters = self.metrics().counters();
        let gauges = self.metrics().gauges();
        let histograms = self.metrics().histograms();
        let health = self.health();
        let fc = self.forecast();
        let mut rows = 0u64;
        self.wal_stmt(|db| {
            let mut metric =
                |db: &mut Self, kind: &str, name: String, value: f64| -> DbResult<()> {
                    let tuple = Tuple::new(vec![
                        Value::Int(ts),
                        Value::from(kind),
                        Value::from(name),
                        Value::from(value),
                    ]);
                    db.insert(TELEMETRY_METRICS, tuple, texp)?;
                    rows += 1;
                    Ok(())
                };
            for (name, v) in counters {
                metric(db, "counter", name, v as f64)?;
            }
            for (name, v) in gauges {
                metric(db, "gauge", name, v as f64)?;
            }
            for (name, h) in histograms {
                metric(db, "histogram", format!("{name}.count"), h.count as f64)?;
                metric(db, "histogram", format!("{name}.p50"), h.p50())?;
                metric(db, "histogram", format!("{name}.p99"), h.p99())?;
            }
            let stale = health
                .views
                .iter()
                .filter(|v| v.ttx.is_some_and(|t| t <= 0))
                .count();
            let health_row = Tuple::new(vec![
                Value::Int(ts),
                Value::from(health.status.to_string()),
                Value::Int(gauge_i64(health.views.len() as u64)),
                Value::Int(gauge_i64(stale as u64)),
                Value::Int(gauge_i64(health.total_breaches())),
                Value::Int(gauge_i64(fc.horizon.total())),
                Value::Int(gauge_i64(fc.horizon.expiring())),
                Value::Int(gauge_i64(fc.horizon.eternal())),
                Value::Int(gauge_i64(fc.horizon.due_within(64))),
                Value::Int(gauge_i64(fc.storms.len() as u64)),
            ]);
            db.insert(TELEMETRY_HEALTH, health_row, texp)?;
            rows += 1;
            Ok(rows)
        })
    }
}

/// Applies the presentation-level `ORDER BY` / `LIMIT` clauses to a final
/// result. The expiration-time algebra is set-based, so ordering is not an
/// operator; it reorders (and truncates) the result relation's iteration
/// order. `ORDER BY` references *output* column names.
fn apply_presentation(rel: Relation, query: &exptime_sql::ast::Query) -> Result<Relation, DbError> {
    if query.order_by.is_empty() && query.limit.is_none() {
        return Ok(rel);
    }
    let schema = rel.schema().clone();
    let mut keys = Vec::with_capacity(query.order_by.len());
    for (col, desc) in &query.order_by {
        if col.table.is_some() {
            return Err(DbError::Sql(SqlError::Plan {
                message: format!("ORDER BY uses output column names; `{col}` is qualified"),
                span: col.span,
            }));
        }
        let pos = schema.position(&col.column).ok_or_else(|| {
            DbError::Sql(SqlError::Plan {
                message: format!("ORDER BY column `{col}` is not in the result"),
                span: col.span,
            })
        })?;
        keys.push((pos, *desc));
    }
    let mut rows: Vec<(Tuple, Time)> = rel.iter().map(|(t, e)| (t.clone(), e)).collect();
    rows.sort_by(|(a, _), (b, _)| {
        for &(pos, desc) in &keys {
            let ord = a.attr(pos).total_cmp(b.attr(pos));
            if !ord.is_eq() {
                return if desc { ord.reverse() } else { ord };
            }
        }
        std::cmp::Ordering::Equal
    });
    if let Some(n) = query.limit {
        rows.truncate(n);
    }
    let mut out = Relation::new(schema);
    for (t, e) in rows {
        out.insert(t, e).map_err(DbError::Core)?;
    }
    Ok(out)
}

/// A [`std::time::Duration`] as saturating nanoseconds.
fn duration_ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A `u64` metric value as a saturating gauge reading.
fn gauge_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Flattens an executed [`PlanProfile`] tree into per-operator costs
/// (self time, excluding children), pre-order.
fn flatten_profile(profile: &PlanProfile) -> Vec<OperatorCost> {
    fn walk(p: &PlanProfile, out: &mut Vec<OperatorCost>) {
        out.push(OperatorCost {
            label: p.label.clone(),
            rows_out: p.rows_out,
            self_ns: duration_ns(p.self_elapsed()),
        });
        for c in &p.children {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(profile, &mut out);
    out
}

/// Records a [`PlanProfile`] tree as spans under `parent`, so the span
/// tree's leaves mirror the EXPLAIN ANALYZE operator rows. The root is
/// pinned to `[start_ns, end_ns]`; children are laid out sequentially
/// from the parent's start, each clamped to end within the parent —
/// profile timings are inclusive of children, so containment (the
/// invariant the span property tests check) is preserved exactly.
fn graft_profile(
    tracer: &Tracer,
    parent: u64,
    profile: &PlanProfile,
    start_ns: u64,
    end_ns: u64,
    at: Option<u64>,
) {
    let attrs = vec![
        ("rows_out".to_string(), profile.rows_out.to_string()),
        (
            "expired_filtered".to_string(),
            profile.expired_filtered.to_string(),
        ),
        ("texp".to_string(), profile.texp.to_string()),
    ];
    let id = tracer.record_child(Some(parent), &profile.label, start_ns, end_ns, at, attrs);
    if id == 0 {
        return;
    }
    let mut cursor = start_ns;
    for child in &profile.children {
        let cend = cursor
            .saturating_add(duration_ns(child.elapsed))
            .min(end_ns);
        graft_profile(tracer, id, child, cursor, cend, at);
        cursor = cend;
    }
}

/// The policy a `TTL …` clause declares (clauses cannot express
/// maintenance windows — those are API-only).
fn policy_of_clause(clause: &TtlClause) -> TtlPolicy {
    TtlPolicy {
        ttl: Some(clause.ttl),
        sliding: clause.sliding,
        clamp: clause.clamp,
        maintenance: None,
    }
}

/// The `TTL …` clause spelling a policy, when it has one: a default TTL
/// is the clause's anchor, so TTL-less shapes (clamp-only policies,
/// maintenance windows) have no SQL spelling and return `None`.
fn clause_of_policy(policy: &TtlPolicy) -> Option<TtlClause> {
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
    Some(exptime_sql::unparse::statement_to_sql(
        &Statement::AlterTtl {
            table: table.to_string(),
            ttl: Some(clause),
        },
    ))
}

/// The planner's view of the catalog: tables and views, by name.
impl SchemaProvider for Database {
    fn schema_of(&self, name: &str) -> Result<Schema, SqlError> {
        let key = name.to_ascii_lowercase();
        if let Some(t) = self.tables.get(&key) {
            return Ok(t.schema().clone());
        }
        if let Some(v) = self.views.get(&key) {
            return Ok(v.schema().clone());
        }
        Err(SqlError::plan(format!("unknown relation `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::tuple;
    use exptime_policy::TouchKind;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    /// Builds the paper's Figure 1 database through SQL.
    fn figure1_db() -> Database {
        let mut db = Database::default();
        db.execute_script(
            "CREATE TABLE pol (uid INT, deg INT);
             CREATE TABLE el (uid INT, deg INT);
             INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
             INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
             INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
             INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
             INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
             INSERT INTO el VALUES (4, 90) EXPIRES AT 2;",
        )
        .unwrap();
        db
    }

    #[test]
    fn sql_roundtrip_figure_2_join() {
        let mut db = figure1_db();
        let q = "SELECT * FROM pol JOIN el ON pol.uid = el.uid";
        let r = db.execute(q).unwrap();
        assert_eq!(r.rows().unwrap().len(), 2);
        db.tick(3);
        let r = db.execute(q).unwrap();
        assert_eq!(r.rows().unwrap().len(), 1, "Figure 2(f)");
        db.tick(2);
        let r = db.execute(q).unwrap();
        assert!(r.rows().unwrap().is_empty(), "Figure 2(g)");
    }

    #[test]
    fn audit_registers_bounds_and_policy_changes_clear_them() {
        let mut db = Database::default();
        db.execute_script(
            "CREATE TABLE sessions (sid INT, uid INT) TTL 30 SLIDING ON ACCESS;
             CREATE TABLE hits (sid INT) TTL 50 CLAMP 5..60;
             CREATE MATERIALIZED VIEW per_user AS
                 SELECT uid, COUNT(*) FROM sessions GROUP BY uid;
             CREATE MATERIALIZED VIEW hit_count AS SELECT COUNT(*) FROM hits;",
        )
        .unwrap();
        let report = db.audit();
        let per_user = report.view("per_user").unwrap();
        assert_eq!(per_user.bound, TickBound::Finite(30));
        assert_eq!(per_user.basis, exptime_lint::BoundBasis::Declared);
        let hit_count = report.view("hit_count").unwrap();
        assert_eq!(hit_count.bound, TickBound::Finite(60));
        assert_eq!(hit_count.basis, exptime_lint::BoundBasis::Proven);
        // TTL 50 sits inside CLAMP 5..60 — the dead-clamp warning.
        assert!(report.lint.codes().contains(&exptime_lint::Code::W105));

        // Bounds land in the monitor: gauges for both, enforcement only
        // for the proven one.
        assert_eq!(
            db.metrics().gauge_value("view.per_user.staleness_bound"),
            30
        );
        assert_eq!(
            db.metrics().gauge_value("view.hit_count.staleness_bound"),
            60
        );
        assert!(!db.staleness_bound("per_user").unwrap().enforced);
        assert!(db.staleness_bound("hit_count").unwrap().enforced);

        // Normal operation never trips an enforced bound.
        db.execute("INSERT INTO hits VALUES (1)").unwrap();
        db.execute("INSERT INTO hits VALUES (2) EXPIRES AT 500")
            .unwrap(); // clamped to now + 60
        db.tick(7);
        let _ = db.execute("SELECT * FROM hit_count").unwrap();
        db.tick(7);
        assert_eq!(db.health().audit_violations, 0);

        // A policy change invalidates the proof: bounds clear until the
        // next audit re-derives them.
        db.execute("ALTER TABLE hits SET TTL 50").unwrap();
        assert!(db.staleness_bound("hit_count").is_none());
        let report = db.audit();
        // Without the clamp the declared TTL is the evidence again.
        assert_eq!(
            report.view("hit_count").unwrap().basis,
            exptime_lint::BoundBasis::Declared
        );
    }

    #[test]
    fn explain_audit_statement_renders_the_report() {
        let mut db = figure1_db();
        let r = db.execute("EXPLAIN AUDIT").unwrap();
        let ExecResult::Ok(text) = r else {
            panic!("EXPLAIN AUDIT returns rendered text, got {r:?}")
        };
        assert!(text.contains("exptime audit @ t=0"), "{text}");
        assert!(
            text.contains("pol: policy none; row lifetime <= 15 ticks (snapshot)"),
            "{text}"
        );
        assert!(text.contains("views:\n  (none)"), "{text}");
    }

    #[test]
    fn forecast_conserves_live_count_and_refreshes_gauges() {
        let mut db = figure1_db();
        let fc = db.forecast();
        assert_eq!(fc.now, 0);
        assert_eq!(fc.horizon.total(), 6, "all six Figure 1 rows are live");
        let per_table: u64 = fc.tables.iter().map(|(_, f)| f.total()).sum();
        assert_eq!(per_table, 6, "merged horizon equals the table sum");
        assert!(fc.storms.is_empty(), "default threshold stays quiet");

        db.tick(3); // el loses texp=2 and texp=3
        assert_eq!(db.metrics().gauge_value("forecast.live"), 4);
        assert_eq!(db.metrics().gauge_value("forecast.expiring"), 4);
        assert_eq!(db.metrics().gauge_value("forecast.eternal"), 0);
        assert_eq!(db.metrics().gauge_value("storage.pol.forecast_expiring"), 3);
        assert_eq!(db.metrics().gauge_value("storage.el.forecast_expiring"), 1);
        let rendered = db.forecast().render(20);
        assert!(rendered.contains("4 expiring"), "{rendered}");
        assert!(rendered.contains("table pol: 3 expiring"), "{rendered}");
    }

    #[test]
    fn storm_warnings_fire_on_dense_buckets_and_views_report_deadlines() {
        let mut db = Database::new(DbConfig {
            forecast: ForecastConfig { storm_threshold: 2 },
            ..DbConfig::default()
        });
        let ring = db.obs().install_ring(64);
        db.execute("CREATE TABLE s (k INT)").unwrap();
        // Five rows one tick out: bucket 0 (width 1) predicts 5/tick > 2.
        for k in 0..5 {
            db.execute(&format!("INSERT INTO s VALUES ({k}) EXPIRES AT 2"))
                .unwrap();
        }
        // Monotonic views never expire (texp = ∞); a difference view has
        // a finite texp — the reappearance time of a hidden tuple that
        // outlives its blocker.
        db.execute("CREATE TABLE base (k INT)").unwrap();
        db.execute("CREATE TABLE ex (k INT)").unwrap();
        db.execute("INSERT INTO base VALUES (0) EXPIRES AT 20")
            .unwrap();
        db.execute("INSERT INTO ex VALUES (0) EXPIRES AT 3")
            .unwrap();
        db.create_materialized_view("v", Expr::base("base").difference(Expr::base("ex")))
            .unwrap();
        db.tick(1);
        let storms: Vec<_> = ring
            .recent(64)
            .into_iter()
            .filter(|e| e.kind.tag() == "storm_warning")
            .collect();
        assert_eq!(storms.len(), 1, "one dense bucket, one warning");
        let EventKind::StormWarning {
            lo,
            hi,
            predicted,
            threshold,
            at,
        } = storms[0].kind
        else {
            unreachable!()
        };
        assert_eq!((lo, hi, predicted, threshold, at), (1, 1, 5, 2, 1));
        // The view's refresh deadline is its texp distance: the hidden
        // tuple reappears at 3, so two ticks out from t=1.
        assert_eq!(db.metrics().gauge_value("view.v.refresh_due_in"), 2);
        assert_eq!(db.forecast().views, vec![("v".to_string(), Some(2))]);
        // Past the dense expirations the storm clears; only the
        // long-lived `base` row remains on the horizon.
        db.tick(5);
        assert_eq!(db.metrics().gauge_value("forecast.live"), 1);
        assert_eq!(db.metrics().gauge_value("forecast.storm_buckets"), 0);
    }

    #[test]
    fn statement_profiles_feed_the_sampled_aggregate() {
        let mut db = figure1_db();
        db.execute("SELECT * FROM pol").unwrap();
        db.execute("SELECT * FROM pol JOIN el ON pol.uid = el.uid")
            .unwrap();
        let s = db.profile_stats();
        assert_eq!(s.statements, 2);
        assert!(s.sampled >= 1, "the first statement is always sampled");
        assert_eq!(s.rows_scanned, 9, "3 (pol) + 3+3 (join inputs)");
        assert_eq!(s.allocations, 9, "one copy per scanned table");
        assert!(s.change_points >= 2, "every operator is a change-point");
        let last = s.last.as_ref().expect("a sampled profile is retained");
        assert!(
            !last.operators.is_empty(),
            "sampled statements carry per-operator detail"
        );
        assert!(
            s.by_operator.keys().any(|k| k.contains("Base")),
            "{:?}",
            s.by_operator.keys().collect::<Vec<_>>()
        );
        let rendered = s.render();
        assert!(rendered.contains("statements=2"), "{rendered}");
    }

    #[test]
    fn a_query_copies_only_the_table_it_names() {
        let mut db = figure1_db();
        db.execute("SELECT * FROM pol").unwrap();
        let stats = db.profile_stats();
        let profile = stats.last.as_ref().expect("the first statement is sampled");
        assert_eq!(profile.allocations, 3, "pol's live rows, not el's");
        assert_eq!(db.table("pol").unwrap().stats().scans, 1);
        assert_eq!(db.table("el").unwrap().stats().scans, 0);
    }

    /// The count gate on "a row that does not come out is never copied":
    /// counts, not timings, so it is exact on any host. Per statement,
    /// `allocations` grows by the rows copied out of storage — the
    /// survivors of a single-table read, `|L| + |R|` and never `|L|·|R|`
    /// for a join — `rows_scanned` by the rows visible at `τ`,
    /// `storage.<t>.scans` by one per table named and `index_lookups` by
    /// none. A quarter of the rows are expired but still in the heap.
    #[test]
    fn a_read_copies_only_the_rows_that_come_out() {
        let mut db = Database::new(DbConfig {
            removal: Removal::Lazy {
                vacuum_every: 1_000_000,
            },
            ..DbConfig::default()
        });
        db.execute("CREATE TABLE big (k INT, v INT)").unwrap();
        db.execute("CREATE TABLE small (k INT, w INT)").unwrap();
        let live = |k: i64| k % 4 != 0;
        for k in 0..1000 {
            let ttl = if live(k) { 100 } else { 5 };
            db.insert_ttl("big", tuple![k, k % 10], ttl).unwrap();
            if k < 10 {
                db.insert_ttl("small", tuple![k, k * k], ttl).unwrap();
            }
        }
        db.tick(5);
        assert_eq!(db.table("big").unwrap().len(), 1000, "expired but present");
        let big = |p: &dyn Fn(i64) -> bool| (0..1000).filter(|&k| live(k) && p(k)).count() as u64;
        let (big_live, small_live) = (big(&|_| true), big(&|k| k < 10));
        // (statement, tables named, rows copied out of storage)
        let cases: [(&str, &[&str], u64); 7] = [
            ("SELECT * FROM big WHERE k = 7", &["big"], 1),
            (
                "SELECT * FROM big WHERE k >= 100 AND k < 200",
                &["big"],
                big(&|k| (100..200).contains(&k)),
            ),
            ("SELECT v FROM big WHERE k < 50", &["big"], big(&|k| k < 50)),
            (
                "SELECT * FROM big JOIN small ON big.k = small.k",
                &["big", "small"],
                big_live + small_live,
            ),
            ("SELECT * FROM big", &["big"], big_live),
            // An aggregation holds each row it groups, once: straight
            // from the scan, not through a copy of the table first.
            ("SELECT v, COUNT(*) FROM big GROUP BY v", &["big"], big_live),
            (
                "SELECT COUNT(*) FROM big WHERE k < 50",
                &["big"],
                big(&|k| k < 50),
            ),
        ];
        const TABLES: [&str; 2] = ["big", "small"];
        // Per table: (scans, index_lookups).
        let storage = |db: &Database| {
            TABLES.map(|n| {
                let stats = db.table(n).unwrap().stats();
                (stats.scans, stats.index_lookups)
            })
        };
        for (sql, named, copied) in cases {
            let visible: u64 = named
                .iter()
                .map(|&n| if n == "big" { big_live } else { small_live })
                .sum();
            let (before, storage_before) = (db.profile_stats(), storage(&db));
            db.execute(sql).unwrap();
            let (after, storage_after) = (db.profile_stats(), storage(&db));
            assert_eq!(after.allocations - before.allocations, copied, "{sql}");
            assert_eq!(after.rows_scanned - before.rows_scanned, visible, "{sql}");
            for (i, n) in TABLES.iter().enumerate() {
                let (was, now) = (storage_before[i], storage_after[i]);
                let scans = u64::from(named.contains(n));
                assert_eq!((now.0 - was.0, now.1 - was.1), (scans, 0), "{sql}: {n}");
            }
        }
    }

    /// `GROUP BY` runs as one pass that builds neither the Klug rows nor
    /// a copy of the table, and still reports every operator of its plan
    /// with the rows it stands for (Figure 3(a): three Klug rows, two
    /// groups, invalid from 10).
    #[test]
    fn explain_analyze_of_group_by_reports_the_operators_it_fused() {
        let mut db = figure1_db();
        let mut explain = |db: &mut Database| {
            let text = db
                .explain_analyze("SELECT deg, COUNT(*) FROM pol GROUP BY deg")
                .unwrap()
                .to_string();
            // Mask the µs column.
            let line = |l: &str| match l.rfind("  ") {
                Some(at) if l.ends_with("µs") => l[..at].to_string(),
                _ => l.to_string(),
            };
            text.lines().map(line).collect::<Vec<_>>()
        };
        assert_eq!(
            explain(&mut db),
            [
                "π[1,2]  rows=2 (in 3, expired 0)  texp=10",
                "  γ[1; count]  rows=3 (in 3, expired 0)  texp=10",
                "    Base(pol)  rows=3 (in 0, expired 0)  texp=∞",
                "result: 2 rows",
            ]
        );
        db.tick(12);
        assert_eq!(
            explain(&mut db),
            [
                "π[1,2]  rows=1 (in 1, expired 0)  texp=∞",
                "  γ[1; count]  rows=1 (in 1, expired 0)  texp=∞",
                "    Base(pol)  rows=1 (in 0, expired 0)  texp=∞",
                "result: 1 rows",
            ]
        );
    }

    #[test]
    fn explain_analyze_and_view_reads_bill_the_profiler() {
        let mut db = figure1_db();
        db.execute("CREATE MATERIALIZED VIEW deg25 AS SELECT uid FROM pol WHERE deg = 25")
            .unwrap();
        let before = db.profile_stats();
        db.read_view("deg25").unwrap();
        let fresh = db.profile_stats();
        assert_eq!(
            (fresh.rows_scanned, fresh.allocations),
            (before.rows_scanned, before.allocations),
            "a fresh view scans nothing — not even what creating it scanned"
        );
        db.explain_analyze("SELECT * FROM pol").unwrap();
        let s = db.profile_stats();
        assert_eq!(s.statements, before.statements + 2);
        let last = s.last.as_ref().expect("explain analyze is always sampled");
        assert!(last.label.contains("Pol") || last.label.contains("pol"));
        assert!(!last.operators.is_empty());
    }

    #[test]
    fn expiration_is_transparent_to_queries() {
        let mut db = figure1_db();
        db.tick(10);
        let r = db.execute("SELECT deg FROM pol").unwrap();
        let rows = r.rows().unwrap();
        assert_eq!(rows.len(), 1, "Figure 2(d): only ⟨25⟩ remains");
        assert!(rows.contains(&tuple![25]));
    }

    #[test]
    fn eager_triggers_fire_at_exact_times() {
        let mut db = figure1_db();
        db.tick(20);
        let log: Vec<_> = db.triggers().log().iter().cloned().collect();
        assert_eq!(log.len(), 6, "all six rows expired");
        for e in &log {
            assert_eq!(e.texp, e.fired_at, "eager: fired exactly at texp");
        }
        // Events are in time order.
        assert!(log.windows(2).all(|w| w[0].fired_at <= w[1].fired_at));
        assert_eq!(db.stats().expired, 6);
    }

    #[test]
    fn lazy_triggers_fire_at_vacuum_time() {
        let mut db = Database::new(DbConfig {
            removal: Removal::Lazy { vacuum_every: 10 },
            ..DbConfig::default()
        });
        db.execute("CREATE TABLE s (k INT)").unwrap();
        db.execute("INSERT INTO s VALUES (1) EXPIRES AT 3").unwrap();
        db.tick(5); // no vacuum yet
        assert_eq!(db.triggers().log().len(), 0);
        // Reads still exclude the expired row.
        assert!(db
            .execute("SELECT * FROM s")
            .unwrap()
            .rows()
            .unwrap()
            .is_empty());
        assert_eq!(db.table("s").unwrap().len(), 1, "physically present");
        db.tick(5); // vacuum at 10
        let log = db.triggers().log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].texp, t(3));
        assert_eq!(log[0].fired_at, t(10), "lazy: fired late");
        assert_eq!(db.stats().vacuums, 1);
    }

    #[test]
    fn trigger_callbacks_run() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let mut db = figure1_db();
        let n = Arc::new(AtomicUsize::new(0));
        let c = n.clone();
        db.on_expire(
            "pol",
            "renew_profile",
            Box::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        db.tick(20);
        assert_eq!(n.load(Ordering::SeqCst), 3, "three pol rows expired");
    }

    #[test]
    fn constraints_reject_inserts() {
        let mut db = Database::default();
        db.execute("CREATE TABLE s (k INT)").unwrap();
        db.add_constraint(
            "s",
            Constraint::MaxLifetime {
                name: "ttl".into(),
                ticks: 100,
            },
        )
        .unwrap();
        assert!(db.execute("INSERT INTO s VALUES (1) EXPIRES AT 50").is_ok());
        assert!(matches!(
            db.execute("INSERT INTO s VALUES (2) EXPIRES AT 200"),
            Err(DbError::Constraint(_))
        ));
        assert!(matches!(
            db.execute("INSERT INTO s VALUES (3) EXPIRES NEVER"),
            Err(DbError::Constraint(_))
        ));
        assert!(db
            .add_constraint(
                "missing",
                Constraint::MaxLifetime {
                    name: "x".into(),
                    ticks: 1
                }
            )
            .is_err());
    }

    #[test]
    fn materialized_view_maintains_itself() {
        let mut db = figure1_db();
        db.execute("CREATE MATERIALIZED VIEW hot AS SELECT uid FROM pol WHERE deg = 25")
            .unwrap();
        let r = db.execute("SELECT * FROM hot").unwrap();
        assert_eq!(r.rows().unwrap().len(), 2);
        let scans = db.table("pol").unwrap().stats().scans;
        db.tick(10);
        let rel = db.read_view("hot").unwrap();
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&tuple![2]));
        // Monotonic view: zero recomputations — a local read, which
        // does not touch the base table at all.
        assert_eq!(db.view_stats("hot").unwrap().recomputations, 0);
        assert_eq!(db.table("pol").unwrap().stats().scans, scans);
        // A write moves the base version; the next read recomputes.
        db.execute("INSERT INTO pol VALUES (4, 25) EXPIRES AT 30")
            .unwrap();
        assert_eq!(db.read_view("hot").unwrap().len(), 2);
        assert_eq!(db.table("pol").unwrap().stats().scans, scans + 1);
        // So does a write that bypasses the engine: the table counts its
        // own writes, so there is no second place to forget one.
        let now = db.now();
        db.table_mut("pol")
            .unwrap()
            .insert(tuple![5, 25], t(40), now)
            .unwrap();
        assert_eq!(db.read_view("hot").unwrap().len(), 3);
    }

    #[test]
    fn non_monotonic_view_recomputes() {
        let mut db = figure1_db();
        db.execute(
            "CREATE MATERIALIZED VIEW others AS
             SELECT uid FROM pol EXCEPT SELECT uid FROM el",
        )
        .unwrap();
        assert_eq!(db.read_view("others").unwrap().len(), 1);
        db.tick(5);
        let rel = db.read_view("others").unwrap();
        assert_eq!(rel.len(), 3, "⟨1⟩,⟨2⟩,⟨3⟩ at time 5 (Figure 3d)");
        assert!(db.view_stats("others").unwrap().recomputations >= 1);
    }

    #[test]
    fn virtual_views_plan_per_read() {
        let mut db = figure1_db();
        db.execute("CREATE VIEW v AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
            .unwrap();
        let r = db.read_view("v").unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tuple![25, 2]));
        db.tick(10);
        let r = db.read_view("v").unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple![25, 1]), "fresh evaluation at 10");
        assert!(db.view_stats("v").is_err(), "virtual views have no stats");
    }

    #[test]
    fn views_over_views_inline() {
        let mut db = figure1_db();
        db.execute("CREATE VIEW a AS SELECT uid, deg FROM pol WHERE deg = 25")
            .unwrap();
        db.execute("CREATE MATERIALIZED VIEW b AS SELECT uid FROM a")
            .unwrap();
        let r = db.read_view("b").unwrap();
        assert_eq!(r.len(), 2);
        // Dropping pol must be blocked by both views.
        assert!(db.drop_table("pol").is_err());
        db.drop_view("b").unwrap();
        db.drop_view("a").unwrap();
        db.drop_table("pol").unwrap();
    }

    #[test]
    fn delete_and_update_expiration_via_sql() {
        let mut db = figure1_db();
        let n = db
            .execute("DELETE FROM pol WHERE deg = 25")
            .unwrap()
            .affected()
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            db.execute("SELECT * FROM pol")
                .unwrap()
                .rows()
                .unwrap()
                .len(),
            1
        );

        // Extend the remaining row's life.
        let n = db
            .execute("UPDATE pol SET EXPIRES AT 50 WHERE uid = 3")
            .unwrap()
            .affected()
            .unwrap();
        assert_eq!(n, 1);
        db.tick(20);
        assert_eq!(
            db.execute("SELECT * FROM pol")
                .unwrap()
                .rows()
                .unwrap()
                .len(),
            1,
            "outlived its original texp of 10"
        );
        // EXPIRES IN is relative to now (20).
        db.execute("UPDATE pol SET EXPIRES IN 5 TICKS").unwrap();
        db.tick(5);
        assert!(db
            .execute("SELECT * FROM pol")
            .unwrap()
            .rows()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn insert_coerces_int_literals_into_float_columns() {
        let mut db = Database::default();
        db.execute("CREATE TABLE m (temp FLOAT)").unwrap();
        db.execute("INSERT INTO m VALUES (21), (22.5) EXPIRES IN 10")
            .unwrap();
        let r = db.execute("SELECT * FROM m").unwrap();
        assert_eq!(r.rows().unwrap().len(), 2);
        assert!(r.rows().unwrap().contains(&tuple![21.0]));
    }

    #[test]
    fn catalog_errors() {
        let mut db = Database::default();
        db.execute("CREATE TABLE s (k INT)").unwrap();
        assert!(matches!(
            db.execute("CREATE TABLE s (k INT)"),
            Err(DbError::Catalog(_))
        ));
        assert!(db.execute("DROP TABLE nope").is_err());
        assert!(db.execute("DROP VIEW nope").is_err());
        assert!(db.execute("SELECT * FROM nope").is_err());
        assert!(db.execute("INSERT INTO s VALUES ('wrong type')").is_err());
        assert!(db.read_view("nope").is_err());
        // Name collision between view and table namespaces.
        db.execute("CREATE VIEW w AS SELECT * FROM s").unwrap();
        assert!(db.execute("CREATE TABLE w (k INT)").is_err());
        assert!(db.execute("CREATE VIEW s AS SELECT * FROM s").is_err());
    }

    #[test]
    fn insert_expires_at_past_time_fails() {
        let mut db = Database::default();
        db.execute("CREATE TABLE s (k INT)").unwrap();
        db.tick(10);
        assert!(matches!(
            db.execute("INSERT INTO s VALUES (1) EXPIRES AT 10"),
            Err(DbError::Core(
                exptime_core::error::Error::ExpirationInPast { .. }
            ))
        ));
    }

    #[test]
    fn dump_restore_roundtrip_preserves_everything_observable() {
        let mut db = figure1_db();
        db.execute("CREATE TABLE notes (body TEXT, pinned BOOL)")
            .unwrap();
        db.execute("INSERT INTO notes VALUES ('it''s a test', TRUE) EXPIRES NEVER")
            .unwrap();
        db.execute("CREATE MATERIALIZED VIEW hot AS SELECT uid FROM pol WHERE deg = 25")
            .unwrap();
        db.execute("CREATE VIEW all_el AS SELECT * FROM el")
            .unwrap();
        db.tick(4); // some rows expire before the dump

        let dump = db.dump_sql();
        assert!(dump.starts_with("-- exptime dump at t=4"));
        let mut restored = Database::restore(&dump).unwrap();
        assert_eq!(restored.now(), t(4));

        // Every query answers identically on both, now and in the future.
        for delta in [0u64, 2, 7, 12] {
            if delta > 0 {
                db.tick(delta);
                restored.tick(delta);
            }
            for q in [
                "SELECT * FROM pol",
                "SELECT * FROM el",
                "SELECT * FROM notes",
                "SELECT uid FROM pol EXCEPT SELECT uid FROM el",
            ] {
                let a = db.execute(q).unwrap().rows().unwrap().clone();
                let b = restored.execute(q).unwrap().rows().unwrap().clone();
                assert!(a.set_eq(&b), "{q} diverged after +{delta}: {a:?} vs {b:?}");
            }
            let a = db.read_view("hot").unwrap();
            let b = restored.read_view("hot").unwrap();
            assert!(a.set_eq(&b), "view diverged after +{delta}");
            let a = db.read_view("all_el").unwrap();
            let b = restored.read_view("all_el").unwrap();
            assert!(a.set_eq(&b));
        }
    }

    #[test]
    fn dump_is_stable_under_roundtrip() {
        let mut db = figure1_db();
        db.execute("CREATE MATERIALIZED VIEW hot AS SELECT uid FROM pol WHERE deg = 25")
            .unwrap();
        let dump1 = db.dump_sql();
        let restored = Database::restore(&dump1).unwrap();
        let dump2 = restored.dump_sql();
        assert_eq!(dump1, dump2, "dump ∘ restore is a fixpoint");
    }

    #[test]
    fn restore_rejects_headerless_scripts() {
        assert!(matches!(
            Database::restore("CREATE TABLE t (a INT);"),
            Err(DbError::Catalog(_))
        ));
        // Comments alone don't make a header either.
        assert!(matches!(
            Database::restore("-- just a note\nCREATE TABLE t (a INT);"),
            Err(DbError::Catalog(_))
        ));
    }

    #[test]
    fn restore_tolerates_leading_blanks_and_comments() {
        let mut db = figure1_db();
        db.tick(4);
        let dump = db.dump_sql();
        let decorated =
            format!("\n   \n-- produced by backup tooling\n-- second comment line\n\n{dump}");
        let restored = Database::restore(&decorated).unwrap();
        assert_eq!(restored.now(), t(4));
        let mut a = db;
        let mut b = restored;
        let ra = a.execute("SELECT * FROM pol").unwrap();
        let rb = b.execute("SELECT * FROM pol").unwrap();
        assert!(ra.rows().unwrap().set_eq(rb.rows().unwrap()));
    }

    #[test]
    fn durable_database_survives_reopen() {
        use crate::durability::{Durability, MemStore};
        let config = DbConfig {
            durability: Durability::Wal {
                group_commit: 1,
                checkpoint_every: 0, // manual only: exercise pure log replay
                expiration_aware: true,
            },
            ..DbConfig::default()
        };
        let disk = MemStore::new();
        {
            let mut db = Database::open_with_store(Box::new(disk.clone()), config).unwrap();
            db.execute("CREATE TABLE s (k INT, v TEXT)").unwrap();
            db.execute("INSERT INTO s VALUES (1, 'keep') EXPIRES AT 100")
                .unwrap();
            db.execute("INSERT INTO s VALUES (2, 'dies') EXPIRES AT 5")
                .unwrap();
            db.execute("CREATE VIEW sv AS SELECT k FROM s").unwrap();
            db.tick(10);
            assert!(db.wal_status().unwrap().log_bytes > 0);
        }
        let mut db = Database::open_with_store(Box::new(disk.clone()), config).unwrap();
        assert_eq!(db.now(), t(10));
        let rows = db.execute("SELECT * FROM s").unwrap();
        assert_eq!(rows.rows().unwrap().len(), 1, "row 2 expired at t=5");
        let view = db.execute("SELECT * FROM sv").unwrap();
        assert_eq!(view.rows().unwrap().len(), 1);
        let rec = db.recovery_stats().unwrap();
        assert_eq!(rec.skipped_expired, 1, "the texp=5 insert is dead at t=10");
        assert_eq!(rec.clock, 10);
        // Recovery ends with a checkpoint: the log is clean again.
        assert_eq!(db.wal_status().unwrap().log_bytes, 0);
    }

    #[test]
    fn open_refuses_volatile_config() {
        use crate::durability::MemStore;
        assert!(matches!(
            Database::open_with_store(Box::new(MemStore::new()), DbConfig::default()),
            Err(DbError::Wal(_))
        ));
    }

    #[test]
    fn checkpoint_truncates_log_and_recovers_without_replay() {
        use crate::durability::{Durability, MemStore};
        let config = DbConfig {
            durability: Durability::wal(),
            ..DbConfig::default()
        };
        let disk = MemStore::new();
        {
            let mut db = Database::open_with_store(Box::new(disk.clone()), config).unwrap();
            db.execute("CREATE TABLE s (k INT)").unwrap();
            for i in 0..20 {
                db.execute(&format!("INSERT INTO s VALUES ({i}) EXPIRES AT 1000"))
                    .unwrap();
            }
            let stats = db.checkpoint().unwrap();
            assert_eq!(stats.live_rows, 20);
            assert!(stats.reclaimed_bytes > 0);
            assert_eq!(db.wal_status().unwrap().log_bytes, 0);
        }
        let db = Database::open_with_store(Box::new(disk.clone()), config).unwrap();
        let rec = db.recovery_stats().unwrap();
        assert_eq!(rec.replayed, 0, "everything came from the checkpoint");
        assert_eq!(rec.checkpoint_rows, 20);
        assert_eq!(db.table("s").unwrap().len(), 20);
    }

    #[test]
    fn api_created_views_dump_as_comments() {
        let mut db = figure1_db();
        db.create_view("v", Expr::base("pol").project([0])).unwrap();
        let dump = db.dump_sql();
        assert!(dump.contains("-- view v (no SQL definition)"), "{dump}");
        // The dump still restores (the comment is skipped).
        assert!(Database::restore(&dump).is_ok());
    }

    #[test]
    fn optimizer_config_preserves_semantics() {
        let build = |optimize: bool| {
            let mut db = Database::new(DbConfig {
                optimize,
                ..DbConfig::default()
            });
            db.execute_script(
                "CREATE TABLE pol (uid INT, deg INT);
                 CREATE TABLE el (uid INT, deg INT);
                 INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
                 INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
                 INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
                 INSERT INTO el VALUES (1, 25) EXPIRES AT 5;
                 INSERT INTO el VALUES (2, 85) EXPIRES AT 3;",
            )
            .unwrap();
            db
        };
        let mut plain = build(false);
        let mut opt = build(true);
        // A selection above a difference: the optimizer pushes it down;
        // answers must be identical at every instant.
        let q = "SELECT uid FROM pol EXCEPT SELECT uid FROM el";
        let q2 = "SELECT deg, COUNT(*) FROM pol WHERE deg = 25 GROUP BY deg";
        for _ in 0..16 {
            for sql in [q, q2] {
                let a = plain.execute(sql).unwrap().rows().unwrap().clone();
                let b = opt.execute(sql).unwrap().rows().unwrap().clone();
                assert!(a.set_eq(&b), "{sql} at {:?}", plain.now());
            }
            plain.tick(1);
            opt.tick(1);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut db = figure1_db();
        assert_eq!(db.stats().inserts, 6);
        db.execute("SELECT * FROM pol").unwrap();
        db.execute("SELECT * FROM el").unwrap();
        assert_eq!(db.stats().queries, 2);
        db.tick(20);
        assert_eq!(db.stats().expired, 6);
    }

    #[test]
    fn stats_are_registry_snapshots_and_count_queries_uniformly() {
        let mut db = figure1_db();
        // The same counts through the registry and through stats().
        assert_eq!(db.metrics().counter_value("db.inserts"), 6);
        assert_eq!(db.metrics().counter_value("storage.pol.inserts"), 3);

        // Every successful evaluation counts once, whatever the door:
        db.execute("SELECT * FROM pol").unwrap(); // SQL
        db.query_expr(&Expr::base("el")).unwrap(); // direct expression
        db.execute("CREATE VIEW v AS SELECT uid FROM pol").unwrap();
        db.read_view("v").unwrap(); // view read
        assert_eq!(db.stats().queries, 3);
        // Failed evaluations don't count (the seed counted unknown-view
        // reads but not unknown-table SELECTs).
        assert!(db.read_view("nope").is_err());
        assert!(db.execute("SELECT * FROM nope").is_err());
        assert_eq!(db.stats().queries, 3);

        // The latency histogram moves in lock-step with the counter.
        let h = db.metrics().histogram("db.query_ns").snapshot();
        assert_eq!(h.count, db.stats().queries);
        let hi = db.metrics().histogram("db.insert_ns").snapshot();
        assert_eq!(hi.count, db.stats().inserts);
    }

    #[test]
    fn lazy_removal_telemetry_shows_late_triggers_and_correct_reads() {
        let mut db = Database::new(DbConfig {
            removal: Removal::Lazy { vacuum_every: 10 },
            ..DbConfig::default()
        });
        let ring = db.obs().install_ring(64);
        db.execute("CREATE TABLE s (k INT)").unwrap();
        db.execute("INSERT INTO s VALUES (1) EXPIRES AT 3").unwrap();
        db.execute("INSERT INTO s VALUES (2) EXPIRES AT 7").unwrap();

        db.tick(8); // past both texp, before any vacuum
                    // Reads are already correct: expiration is logical.
        assert!(db
            .execute("SELECT * FROM s")
            .unwrap()
            .rows()
            .unwrap()
            .is_empty());
        // …but no trigger has fired yet; the event log shows only the
        // clock moving.
        let fired: Vec<_> = ring
            .recent(64)
            .into_iter()
            .filter(|e| e.kind.tag() == "trigger_fired")
            .collect();
        assert!(fired.is_empty(), "no vacuum yet: {fired:?}");

        db.tick(2); // vacuum at 10
        let events = ring.recent(64);
        let fired: Vec<_> = events
            .iter()
            .filter(|e| e.kind.tag() == "trigger_fired")
            .collect();
        assert_eq!(fired.len(), 2);
        for e in &fired {
            let EventKind::TriggerFired { texp, fired_at, .. } = &e.kind else {
                unreachable!()
            };
            assert_eq!(*fired_at, 10, "lazy: fired at vacuum time");
            assert!(fired_at > texp, "…which is after texp");
        }
        let vacuums: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::VacuumPass { at: 10, removed: 2 }))
            .collect();
        assert_eq!(vacuums.len(), 1);
    }

    #[test]
    fn lint_analyses_statements_without_executing_them() {
        let db = figure1_db();
        // Monotonic workload: clean.
        let r = db.lint("SELECT uid FROM pol WHERE deg >= 25").unwrap();
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        // Fig. 3(a): aggregate under a projection → X001 + X003.
        let r = db
            .lint("SELECT deg, COUNT(*) FROM pol GROUP BY deg")
            .unwrap();
        assert_eq!(
            r.codes(),
            vec![exptime_lint::Code::X001, exptime_lint::Code::X003]
        );
        // Materialised difference → X002 (error).
        let r = db
            .lint("CREATE MATERIALIZED VIEW d AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
            .unwrap();
        assert_eq!(r.codes(), vec![exptime_lint::Code::X002]);
        // A virtual view is not materialised: no X002.
        let r = db
            .lint("CREATE VIEW d AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
            .unwrap();
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        // Nothing was executed: no view exists, and non-lintable
        // statements are rejected.
        assert!(db.view_diagnostics("d").is_err());
        assert!(db.lint("INSERT INTO pol VALUES (9, 9)").is_err());
        // explain_lint renders carets into the source.
        let out = db
            .explain_lint("SELECT uid FROM pol EXCEPT SELECT uid FROM el")
            .unwrap();
        assert!(out.contains("X002 [error] at 1:21"), "{out}");
        assert!(out.contains("^^^^^^"), "{out}");
    }

    #[test]
    fn create_materialized_view_records_diagnostics_and_emits_events() {
        let mut db = figure1_db();
        let ring = db.obs().install_ring(64);
        db.execute("CREATE MATERIALIZED VIEW d AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
            .unwrap();
        let r = db.view_diagnostics("d").unwrap();
        assert_eq!(r.codes(), vec![exptime_lint::Code::X002]);
        assert_eq!(db.metrics().counter_value("lint.diagnostics"), 1);
        let events = ring.recent(64);
        assert!(
            events.iter().any(|e| matches!(
                &e.kind,
                EventKind::LintDiagnostic { code, subject, .. }
                    if code == "X002" && subject == "d"
            )),
            "{events:?}"
        );
        // A monotonic view records a clean report and no events.
        db.execute("CREATE MATERIALIZED VIEW hot AS SELECT uid FROM pol WHERE deg = 25")
            .unwrap();
        assert!(db.view_diagnostics("hot").unwrap().is_clean());
        assert_eq!(db.metrics().counter_value("lint.diagnostics"), 1);
    }

    #[test]
    fn w101_fires_when_refresh_is_due_within_the_slo_window() {
        // Tolerating 100 ticks of trigger lateness while the view's
        // content expires at t=10 means a legally late trigger misses the
        // refresh window entirely.
        let mut config = DbConfig::default();
        config.slo.max_trigger_lateness = 100;
        let mut db = Database::new(config);
        db.execute_script(
            "CREATE TABLE pol (uid INT, deg INT);
             INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
             INSERT INTO pol VALUES (2, 25) EXPIRES AT 20;",
        )
        .unwrap();
        db.execute("CREATE MATERIALIZED VIEW soon AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
            .unwrap();
        let r = db.view_diagnostics("soon").unwrap();
        assert!(
            r.codes().contains(&exptime_lint::Code::W101),
            "{:?}",
            r.codes()
        );
        let w = r
            .diagnostics
            .iter()
            .find(|d| d.code == exptime_lint::Code::W101)
            .unwrap();
        assert!(w.message.contains("10 tick(s)"), "{}", w.message);
        assert!(w.message.contains("100"), "{}", w.message);
        // With a punctual SLO (default lateness 0) the same view is fine.
        let mut db = figure1_db();
        db.execute("CREATE MATERIALIZED VIEW soon AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
            .unwrap();
        assert!(!db
            .view_diagnostics("soon")
            .unwrap()
            .codes()
            .contains(&exptime_lint::Code::W101));
    }

    #[test]
    fn explain_analyze_reports_plan_and_view_decisions() {
        let mut db = figure1_db();
        db.execute("CREATE MATERIALIZED VIEW hot AS SELECT uid FROM pol WHERE deg = 25")
            .unwrap();

        let explain = db.explain_analyze("SELECT * FROM hot").unwrap();
        assert_eq!(explain.rows, 2);
        // Monotonic view: Theorem 1, never recomputed.
        assert_eq!(
            explain.decisions,
            vec![("hot".to_string(), RefreshDecision::Eternal)]
        );
        let text = explain.to_string();
        assert!(text.contains("rows="), "{text}");
        assert!(text.contains("Theorem 1"), "{text}");
        assert!(text.contains("result: 2 rows"), "{text}");
        // The profile is a real execution: σ over the base table, with
        // per-operator row counts.
        assert_eq!(explain.profile.rows_out, 2);

        // Non-SELECT statements are rejected.
        assert!(db.explain_analyze("CREATE TABLE x (a INT)").is_err());

        // Joins profile the whole tree.
        let e = db
            .explain_analyze("SELECT * FROM pol JOIN el ON pol.uid = el.uid")
            .unwrap();
        assert_eq!(e.rows, 2);
        assert!(e.profile.node_count() >= 3, "join + two bases");
    }

    // ------------------------------------------------------------------
    // TTL policies
    // ------------------------------------------------------------------

    #[test]
    fn ttl_policy_defaults_and_clamps_on_insert() {
        let mut db = Database::default();
        db.execute("CREATE TABLE sess (sid INT) TTL 30 CLAMP 10..50")
            .unwrap();
        db.tick(100);
        // No EXPIRES clause: policy default now+30.
        db.execute("INSERT INTO sess VALUES (1)").unwrap();
        let tu = tuple![1i64];
        assert_eq!(db.table("sess").unwrap().texp(&tu), Some(t(130)));
        // Over the clamp: forced down to now+50.
        db.execute("INSERT INTO sess VALUES (2) EXPIRES IN 500")
            .unwrap();
        assert_eq!(db.table("sess").unwrap().texp(&tuple![2i64]), Some(t(150)));
        // NEVER is finite-ized by the clamp max.
        db.execute("INSERT INTO sess VALUES (3) EXPIRES NEVER")
            .unwrap();
        assert_eq!(db.table("sess").unwrap().texp(&tuple![3i64]), Some(t(150)));
        // Under the clamp: raised to now+10.
        db.execute("INSERT INTO sess VALUES (4) EXPIRES IN 2")
            .unwrap();
        assert_eq!(db.table("sess").unwrap().texp(&tuple![4i64]), Some(t(110)));
        assert_eq!(db.metrics().counter("policy.clamped").get(), 3);
        assert_eq!(db.metrics().counter("policy.sess.clamped").get(), 3);
        assert_eq!(db.metrics().counter("policy.sliding_touches").get(), 0);
    }

    #[test]
    fn sliding_on_access_reads_rearm_and_show_ttl_reports() {
        let mut db = Database::default();
        db.execute("CREATE TABLE sess (sid INT) TTL 30 SLIDING ON ACCESS")
            .unwrap();
        db.execute("INSERT INTO sess VALUES (1)").unwrap();
        db.execute("INSERT INTO sess VALUES (2)").unwrap();
        db.tick(20);
        // Reading sid=1 re-arms it to 20+30; sid=2 keeps texp=30.
        db.execute("SELECT * FROM sess WHERE sid = 1").unwrap();
        assert_eq!(db.table("sess").unwrap().texp(&tuple![1i64]), Some(t(50)));
        assert_eq!(db.table("sess").unwrap().texp(&tuple![2i64]), Some(t(30)));
        db.tick(15); // t=35: the untouched session is gone
        let rows = db.execute("SELECT * FROM sess").unwrap();
        assert_eq!(rows.rows().unwrap().len(), 1);
        assert_eq!(db.metrics().counter("policy.sliding_touches").get(), 2);
        // SHOW TTL: one row per table with the rendered policy + counters.
        let show = db.execute("SHOW TTL FOR sess").unwrap();
        let rel = show.rows().unwrap();
        assert_eq!(rel.len(), 1);
        let row = rel.iter().next().unwrap().0;
        assert_eq!(row.values()[0], Value::str("sess"));
        assert_eq!(row.values()[1], Value::str("TTL 30 SLIDING ON ACCESS"));
        assert_eq!(row.values()[2], Value::Int(2), "sliding_touches");
    }

    #[test]
    fn update_expires_default_is_a_modify_touch() {
        let mut db = Database::default();
        db.execute("CREATE TABLE sess (sid INT) TTL 30 SLIDING")
            .unwrap();
        db.execute("INSERT INTO sess VALUES (1)").unwrap();
        db.tick(10);
        // Modify-touch slides texp to 10+30; reads do NOT slide here.
        db.execute("SELECT * FROM sess").unwrap();
        assert_eq!(db.table("sess").unwrap().texp(&tuple![1i64]), Some(t(30)));
        assert!(matches!(
            db.execute("UPDATE sess SET EXPIRES DEFAULT").unwrap(),
            ExecResult::Affected(1)
        ));
        assert_eq!(db.table("sess").unwrap().texp(&tuple![1i64]), Some(t(40)));
        // A second touch at the same instant is a no-op (monotone).
        assert!(matches!(
            db.execute("UPDATE sess SET EXPIRES DEFAULT").unwrap(),
            ExecResult::Affected(0)
        ));
        // Re-inserting the same row is also a modify touch (keep-max).
        db.tick(5);
        db.execute("INSERT INTO sess VALUES (1)").unwrap();
        assert_eq!(db.table("sess").unwrap().texp(&tuple![1i64]), Some(t(45)));
        assert_eq!(db.metrics().counter("policy.sliding_touches").get(), 2);
    }

    #[test]
    fn alter_ttl_swaps_and_clears_policies() {
        let mut db = Database::default();
        db.execute("CREATE TABLE s (k INT)").unwrap();
        assert_eq!(db.ttl_policy("s"), None);
        db.execute("ALTER TABLE s SET TTL 60 SLIDING ON ACCESS CLAMP 5..400")
            .unwrap();
        let p = db.ttl_policy("s").unwrap();
        assert_eq!(p.ttl, Some(60));
        assert!(p.sliding.slides_on(TouchKind::Access));
        db.execute("INSERT INTO s VALUES (1)").unwrap();
        assert_eq!(db.table("s").unwrap().texp(&tuple![1i64]), Some(t(60)));
        db.execute("ALTER TABLE s SET TTL NONE").unwrap();
        assert_eq!(db.ttl_policy("s"), None);
        // Cleared: inserts are immortal again, rows keep their old texp.
        db.execute("INSERT INTO s VALUES (2)").unwrap();
        assert_eq!(
            db.table("s").unwrap().texp(&tuple![2i64]),
            Some(Time::INFINITY)
        );
        assert_eq!(db.table("s").unwrap().texp(&tuple![1i64]), Some(t(60)));
        assert!(db
            .execute("ALTER TABLE nope SET TTL 5")
            .unwrap_err()
            .to_string()
            .contains("unknown table"));
    }

    #[test]
    fn sliding_policy_under_matview_warns_w102() {
        let mut db = Database::default();
        db.execute("CREATE TABLE s (k INT) TTL 30 SLIDING ON ACCESS")
            .unwrap();
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT k FROM s")
            .unwrap();
        let report = db.view_diagnostics("mv").unwrap();
        assert!(
            report.codes().contains(&exptime_lint::Code::W102),
            "{report:?}"
        );
        // The other direction: ALTER under an existing matview emits the
        // W102 event (the stored report predates the policy).
        let mut db = Database::default();
        db.execute("CREATE TABLE s (k INT)").unwrap();
        db.execute("CREATE MATERIALIZED VIEW mv AS SELECT k FROM s")
            .unwrap();
        let before = db.metrics().counter("lint.diagnostics").get();
        db.execute("ALTER TABLE s SET TTL 30 SLIDING").unwrap();
        assert_eq!(db.metrics().counter("lint.diagnostics").get(), before + 1);
    }

    #[test]
    fn maintenance_window_defers_expirations_api_only() {
        let mut db = Database::default();
        db.execute("CREATE TABLE s (k INT) TTL 10").unwrap();
        db.set_maintenance_window("s", Some(MaintenanceWindow::new(5, 25)))
            .unwrap();
        db.execute("INSERT INTO s VALUES (1)").unwrap(); // now+10 = 10 ∈ [5,25) → 25
        assert_eq!(db.table("s").unwrap().texp(&tuple![1i64]), Some(t(25)));
        // Windows have no SQL spelling: the whole policy is dumped as an
        // API-only comment rather than a clause that would lose the window.
        let dump = db.dump_sql();
        assert!(dump.contains("API-only"), "{dump}");
        assert!(dump.contains("maintenance 5..25"), "{dump}");
        db.set_maintenance_window("s", None).unwrap();
        assert_eq!(db.ttl_policy("s").unwrap().maintenance, None);
    }

    #[test]
    fn policies_and_sliding_touches_survive_wal_recovery() {
        use crate::durability::{Durability, MemStore};
        let config = DbConfig {
            durability: Durability::Wal {
                group_commit: 1,
                checkpoint_every: 0, // pure log replay
                expiration_aware: true,
            },
            ..DbConfig::default()
        };
        let disk = MemStore::new();
        {
            let mut db = Database::open_with_store(Box::new(disk.clone()), config).unwrap();
            db.execute("CREATE TABLE sess (sid INT) TTL 30 SLIDING ON ACCESS")
                .unwrap();
            db.execute("INSERT INTO sess VALUES (1)").unwrap();
            db.execute("INSERT INTO sess VALUES (2)").unwrap();
            db.tick(20);
            // The read re-arms sid=1 to t=50 and must be durable.
            db.execute("SELECT * FROM sess WHERE sid = 1").unwrap();
        }
        let mut db = Database::open_with_store(Box::new(disk.clone()), config).unwrap();
        assert_eq!(db.now(), t(20));
        let p = db.ttl_policy("sess").unwrap();
        assert!(p.sliding.slides_on(TouchKind::Access), "policy recovered");
        assert_eq!(
            db.table("sess").unwrap().texp(&tuple![1i64]),
            Some(t(50)),
            "durable sliding touch"
        );
        db.tick(15); // t=35: untouched session expires, touched one lives
        let rows = db.execute("SELECT * FROM sess").unwrap();
        assert_eq!(rows.rows().unwrap().len(), 1);
        // Replay must not double-apply the policy: recovery is absolute.
        assert_eq!(db.table("sess").unwrap().texp(&tuple![1i64]), Some(t(65)));
        // (that read itself slid sid=1 to 35+30 — the policy is live again)
    }

    #[test]
    fn policies_survive_checkpoint_and_dump_restore() {
        use crate::durability::{Durability, MemStore};
        let config = DbConfig {
            durability: Durability::wal(),
            ..DbConfig::default()
        };
        let disk = MemStore::new();
        {
            let mut db = Database::open_with_store(Box::new(disk.clone()), config).unwrap();
            db.execute("CREATE TABLE sess (sid INT) TTL 30 SLIDING CLAMP 5..400")
                .unwrap();
            db.execute("INSERT INTO sess VALUES (1)").unwrap();
            db.checkpoint().unwrap(); // policy must live in the checkpoint
        }
        let db = Database::open_with_store(Box::new(disk.clone()), config).unwrap();
        let p = db.ttl_policy("sess").unwrap();
        assert_eq!(p.ttl, Some(30));
        assert_eq!(p.clamp.map(|c| (c.min, c.max)), Some((5, 400)));

        // Dump → restore: policy rides on CREATE TABLE; restored rows keep
        // their absolute texp (no re-clamping in system context).
        let mut db = Database::default();
        db.execute("CREATE TABLE s (k INT) TTL 10 CLAMP 5..20")
            .unwrap();
        db.execute("INSERT INTO s VALUES (1) EXPIRES IN 15")
            .unwrap();
        db.tick(3);
        let dump = db.dump_sql();
        let restored = Database::restore(&dump).unwrap();
        assert_eq!(restored.ttl_policy("s").unwrap().ttl, Some(10));
        assert_eq!(
            restored.table("s").unwrap().texp(&tuple![1i64]),
            Some(t(15)),
            "restored texp is absolute, not re-derived"
        );
    }

    #[test]
    fn policy_status_lists_every_table() {
        let mut db = Database::default();
        db.execute("CREATE TABLE plain (k INT)").unwrap();
        db.execute("CREATE TABLE sess (sid INT) TTL 30 SLIDING ON ACCESS")
            .unwrap();
        db.execute("INSERT INTO sess VALUES (1)").unwrap();
        db.tick(5); // a touch at insert time would be a no-op (same target)
        db.execute("SELECT * FROM sess").unwrap();
        let st = db.policy_status();
        assert_eq!(st.len(), 2);
        let plain = st.iter().find(|s| s.table == "plain").unwrap();
        assert!(plain.policy.is_identity());
        let sess = st.iter().find(|s| s.table == "sess").unwrap();
        assert_eq!(sess.live_rows, 1);
        assert_eq!(sess.sliding_touches, 1);
    }
}
