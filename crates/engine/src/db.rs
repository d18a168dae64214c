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
//! touch → durability → maintenance — with the analyzer beside it. Each
//! stage has its module:
//!
//! * **dispatch** — this file: `execute*`, the table catalog and DDL, and
//!   the TTL-policy catalog (`set_ttl_policy`, `SHOW TTL`);
//! * **read** — the query half here (`select` → `evaluate`, which inlines
//!   views, evaluates under the default `EvalOptions` and profiles the
//!   statements it samples, and `bill_query`, through which every read is
//!   counted); `stored` is the tables as the algebra's binding environment
//!   (what a read scans); `views` is the view catalog and the view half —
//!   how a view is inlined into a query, and how a materialised one is
//!   served under the one refresh policy the analyzer also reads;
//! * **write** and **policy touch** — `write`: every change to a stored
//!   row, live or redone, goes through its one `apply`;
//! * **durability** — `durable`: open and recovery, checkpoints, the WAL
//!   statement bracket, and dump/restore;
//! * **maintenance** — `maintain`: the clock (`tick`, `advance_to`,
//!   vacuum), the one place a row leaves by expiration, the health
//!   snapshot and the forecast;
//! * **analysis** — `analysis`: statement lint, the `W101`/`W102` checks of
//!   a materialisation, what a policy change means to the audit, and the
//!   whole-database audit.
//!
//! The telemetry sampler, which runs on clock advances and at statement
//! boundaries, is here too.

use crate::constraint::{Constraint, ConstraintViolation};
use crate::durability::Durability;
use crate::telemetry::{TelemetryConfig, TelemetryStatus, TELEMETRY_HEALTH, TELEMETRY_METRICS};
use crate::trigger::{TriggerFn, TriggerManager};
use exptime_core::algebra::{
    eval, eval_profiled, EvalOptions, Expr, Materialized, PlanProfile, ProfileStats, Profiler,
};
use exptime_core::materialize::RefreshDecision;
use exptime_core::relation::Relation;
use exptime_core::schema::{Attribute, Schema};
use exptime_core::time::{Clock, Time};
use exptime_core::tuple::Tuple;
use exptime_core::value::{Value, ValueType};
use exptime_obs::{
    Counter, EventKind, Histogram, MetricsRegistry, Obs, SloConfig, StalenessMonitor, Tracer,
};
use exptime_policy::{MaintenanceWindow, TtlPolicy};
use exptime_sql::ast::{Statement, TtlClause};
use exptime_sql::{plan_query, SchemaProvider, SqlError};
use exptime_storage::{IndexKind, Table};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Instant;

mod analysis;
mod durable;
mod maintain;
mod stored;
mod views;
mod write;
use durable::{clause_of_policy, WalSession};
pub use maintain::{DbForecast, ForecastConfig, Removal};
use views::ViewEntry;

/// Engine configuration: what a deployment sets. How statements evaluate
/// and how materialised views refresh are not settings (see `db/views.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DbConfig {
    /// Expiration index implementation for new tables.
    pub index: IndexKind,
    /// Removal policy.
    pub removal: Removal,
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
    /// Wall nanoseconds of those queries, summed (`db.query_ns`).
    pub query_ns: u64,
    /// Rows visible at `τ` that scans lent an evaluation since open — a
    /// read, a view (re)materialisation, a replica's own `eval` over the
    /// database — so not a per-statement cost.
    pub rows_scanned: u64,
    /// Of those, the rows the evaluation kept: the copies reads made.
    pub rows_copied: u64,
}

impl DbStats {
    /// The `db.*` counters of a database's registry, read without the
    /// database (the telemetry server holds only the registry).
    #[must_use]
    pub fn of(registry: &MetricsRegistry) -> DbStats {
        DbCounters::in_registry(registry).snapshot()
    }
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
    rows_scanned: Counter,
    rows_copied: Counter,
    /// Latency of successful query evaluations, nanoseconds.
    query_ns: Histogram,
    /// Latency of successful inserts, nanoseconds.
    insert_ns: Histogram,
}

/// The profiler's cadence: a statement is profiled per operator when
/// `db.queries` is a multiple of this as it starts, so the first one is.
const SAMPLE_EVERY: u64 = 16;

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
            rows_scanned: registry.counter("db.rows_scanned"),
            rows_copied: registry.counter("db.rows_copied"),
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
            query_ns: self.query_ns.snapshot().sum,
            rows_scanned: self.rows_scanned.get(),
            rows_copied: self.rows_copied.get(),
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
    /// Per-operator detail of every `SAMPLE_EVERY`-th statement.
    profiler: Profiler,
    /// Attached write-ahead log, when opened with [`Durability::Wal`].
    /// `None` both for volatile databases and *during* recovery replay
    /// (so replayed operations are not re-logged). Only `db/durable.rs`
    /// touches it (repolint R010).
    wal: Option<WalSession>,
    /// True while the engine itself is executing statements
    /// ([`Database::as_system`]: recovery, restore, the telemetry sampler).
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
            wal: None,
            system_ctx: false,
            telemetry_last_sample: None,
            telemetry_samples: 0,
            serving: None,
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
    /// and refresh decisions as they happen.
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

    /// The per-operator aggregate of the sampled statements (every
    /// `SAMPLE_EVERY`-th, and every EXPLAIN ANALYZE). What they all cost
    /// — statements, wall time, rows scanned and copied — is in
    /// [`Database::stats`].
    #[must_use]
    pub fn profile_stats(&self) -> ProfileStats {
        self.profiler.snapshot()
    }

    /// The statement profiler handle (shared — clones see the same
    /// aggregate), for servers that read it without the database.
    #[must_use]
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
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
        let columns = columns(&schema);
        let mut table = Table::new(key.clone(), schema, self.config.index);
        table.attach_obs(&self.obs);
        table.attach_tracer(&self.tracer);
        self.tables.insert(key.clone(), table);
        self.log_ddl(Statement::CreateTable {
            name: key,
            columns,
            // Any TTL policy is set after creation and logged as its own
            // ALTER record (see [`Database::set_ttl_policy`]).
            ttl: None,
        })
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
        self.log_ddl(Statement::DropTable { name: key })
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
        let at = self.clock.now().finite();
        self.obs.emit_with(at, || EventKind::PolicyChange {
            table: key.clone(),
            policy: policy.to_string(),
            at: at.unwrap_or(u64::MAX),
        });
        self.policy_changed(&key);
        // An identity policy logs as `SET TTL NONE`.
        let ttl = clause_of_policy(&policy);
        if ttl.is_some() || policy.is_identity() {
            self.log_ddl(Statement::AlterTtl { table: key, ttl })?;
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
        apply_presentation(&mut m.rel, query)?;
        // Sliding-on-access policies see the read *after* the result is
        // computed: this query observes the pre-touch state; only future
        // visibility is extended.
        self.apply_access_touches(query)?;
        Ok(m)
    }

    /// The one read path (DESIGN.md §8.1). Every way a query reaches the
    /// algebra — [`Database::select`] (so `execute` and the wire server),
    /// [`Database::query_expr`] (so `\plan`), virtual-view reads and
    /// EXPLAIN ANALYZE — runs this: inline views, then evaluate the
    /// planned expression as it stands (there is no rewrite on the read
    /// path) over the borrowed tables at the pinned `τ` under the
    /// `query`/`eval` spans, count, and hand a sampled statement's
    /// [`PlanProfile`] to the profiler.
    ///
    /// `explain` asks for the full report: the materialised views the
    /// query names are refreshed first, so it carries the decision an
    /// ordinary read would make at this instant (Theorem 1/2/3 or
    /// recompute); the statement is sampled whatever the cadence; and the
    /// evaluation opens one span per operator under the `eval` span, so
    /// the span tree below it is the EXPLAIN ANALYZE tree.
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
            let expr = db.inline_views(expr);
            let mut eval_sp = db.tracer.span("eval");
            let sampled = explain || db.counters.queries.get() % SAMPLE_EVERY == 0;
            let opts = EvalOptions::default();
            let (m, profile) = if sampled {
                let tracer = explain.then_some(&db.tracer);
                let (m, profile) = eval_profiled(&expr, &*db, now, &opts, tracer)?;
                db.profiler.record(expr.to_string(), &profile);
                (m, Some(profile))
            } else {
                (eval(&expr, &*db, now, &opts)?, None)
            };
            eval_sp.attr("rows_out", m.rel.len());
            eval_sp.attr("texp", m.texp);
            drop(eval_sp);
            let rows = m.rel.len();
            let report = profile.filter(|_| explain).map(|profile| Explain {
                profile,
                decisions,
                rows,
            });
            Ok(((m, report), rows))
        })
    }

    /// Runs `run` as one billed query: under the `query` span (`run`
    /// returns the rows it produced with its result), and counted in
    /// `db.queries` / `db.query_ns`.
    fn bill_query<T>(
        &mut self,
        view: Option<&str>,
        run: impl FnOnce(&mut Self) -> DbResult<(T, usize)>,
    ) -> DbResult<T> {
        let start = Instant::now();
        let mut root = self.tracer.span("query");
        if let Some(view) = view {
            root.attr("view", view);
        }
        if let Some(t) = self.clock.now().finite() {
            root.at(t);
        }
        let (out, rows) = run(self)?;
        root.attr("rows", rows);
        self.counters.queries.inc();
        self.counters.query_ns.record_duration(start.elapsed());
        Ok(out)
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
                self.create_table(&name, schema_of_columns(columns)?)?;
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
        match self.as_system(|db| db.sample_telemetry(now)) {
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
/// order in place. `ORDER BY` references *output* column names.
fn apply_presentation(rel: &mut Relation, query: &exptime_sql::ast::Query) -> Result<(), DbError> {
    let schema = rel.schema();
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
    if !keys.is_empty() {
        rel.sort_rows_by(|a, b| {
            for &(pos, desc) in &keys {
                let ord = a.attr(pos).total_cmp(b.attr(pos));
                if !ord.is_eq() {
                    return if desc { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(n) = query.limit {
        rel.truncate(n);
    }
    Ok(())
}

/// A [`std::time::Duration`] as saturating nanoseconds.
fn duration_ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A `u64` metric value as a saturating gauge reading.
fn gauge_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
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

/// A schema's columns as `CREATE TABLE` (and a checkpoint) spells them.
fn columns(schema: &Schema) -> Vec<(String, ValueType)> {
    let column = |a: &Attribute| (a.name.clone(), a.ty);
    schema.attributes().iter().map(column).collect()
}

/// The schema `CREATE TABLE` (or a checkpoint) columns declare.
fn schema_of_columns(columns: Vec<(String, ValueType)>) -> DbResult<Schema> {
    let attrs = columns.into_iter().map(|(n, ty)| Attribute::new(n, ty));
    Ok(Schema::new(attrs.collect())?)
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
    use exptime_core::rewrite::TickBound;
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

    /// `ORDER BY … LIMIT` reorders and cuts the result in place: a kept
    /// row keeps its `texp`, and `texp(e)` and `I(e)` stay those of the
    /// whole result, which a truncated one must not be expired forward by.
    #[test]
    fn limit_keeps_the_whole_results_texp_and_validity() {
        let mut db = figure1_db();
        db.tick(3);
        let mut select = |sql: &str| match exptime_sql::parse(sql).unwrap() {
            Statement::Select(query) => db.select(&query).unwrap(),
            other => panic!("not a query: {other:?}"),
        };
        let diff = "SELECT uid FROM pol EXCEPT SELECT uid FROM el";
        let whole = select(diff);
        let top = select(&format!("{diff} ORDER BY uid DESC LIMIT 1"));
        let rows = |m: &Materialized| {
            m.rel
                .iter()
                .map(|(t, e)| (t.clone(), e))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&whole), [(tuple![2], t(15)), (tuple![3], t(10))]);
        assert_eq!(rows(&top), [(tuple![3], t(10))]);
        assert_eq!(whole.texp, t(5), "⟨1⟩ reappears when el's copy expires");
        assert_eq!(top.texp, whole.texp);
        assert_eq!(top.validity, whole.validity);
        assert!(!top.valid_at(t(5)));
    }

    /// A table's live horizon in the audit graph is its latest-expiring
    /// live row: unbounded once one is eternal, exact while it is empty,
    /// and rows already dead at `τ` do not count.
    #[test]
    fn audit_graph_bounds_each_table_by_its_latest_live_row() {
        let mut db = Database::default();
        for t in ["e", "f", "g"] {
            db.execute(&format!("CREATE TABLE {t} (k INT)")).unwrap();
        }
        db.execute("INSERT INTO f VALUES (1) EXPIRES AT 3").unwrap();
        db.execute("INSERT INTO f VALUES (2) EXPIRES AT 9").unwrap();
        db.execute("INSERT INTO g VALUES (1) EXPIRES AT 4").unwrap();
        db.execute("INSERT INTO g VALUES (2)").unwrap();
        db.tick(2);
        let horizons = |db: &Database| {
            let graph = db.audit_graph();
            graph
                .tables
                .iter()
                .map(|t| t.live_horizon)
                .collect::<Vec<_>>()
        };
        let finite = TickBound::Finite;
        assert_eq!(
            horizons(&db),
            [TickBound::ZERO, finite(7), TickBound::Unbounded]
        );
        db.tick(6);
        assert_eq!(
            horizons(&db),
            [TickBound::ZERO, finite(1), TickBound::Unbounded]
        );
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
        assert_eq!(db.metrics().gauge_value("view.v.ttx"), 2);
        let gauges = db.metrics().gauges();
        assert!(gauges.iter().all(|(g, _)| !g.ends_with(".refresh_due_in")));
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
        let (stats, s) = (db.stats(), db.profile_stats());
        assert_eq!(stats.queries, 2);
        assert_eq!(s.sampled, 1, "the first statement is sampled");
        assert_eq!(stats.rows_scanned, 9, "3 (pol) + 3+3 (join inputs)");
        assert_eq!(stats.rows_copied, 9, "one copy per scanned table");
        let (label, tree) = s.last.as_ref().expect("a sampled profile is retained");
        assert!(label.contains("pol"), "{label}");
        assert_eq!(tree.label, "Base(pol)");
        assert_eq!(s.by_operator["Base(pol)"].calls, 1);
        assert!(s.render().contains("Base(pol)"), "{}", s.render());
        // Then every SAMPLE_EVERY-th billed statement.
        for _ in 2..=SAMPLE_EVERY {
            db.execute("SELECT * FROM el").unwrap();
        }
        assert_eq!(db.profile_stats().sampled, 2);
    }

    #[test]
    fn a_query_copies_only_the_table_it_names() {
        let mut db = figure1_db();
        let before = db.stats().rows_copied;
        db.execute("SELECT * FROM pol").unwrap();
        let copied = db.stats().rows_copied - before;
        assert_eq!(copied, 3, "pol's live rows, not el's");
        assert_eq!(db.table("pol").unwrap().stats().scans, 1);
        assert_eq!(db.table("el").unwrap().stats().scans, 0);
    }

    /// The count gate on "a row that does not come out is never copied":
    /// counts, not timings, so it is exact on any host. Per statement,
    /// `db.rows_copied` grows by the rows copied out of storage — the
    /// survivors of a single-table read or a write's `WHERE`, one per
    /// group under a π, `|L| + |R|` and never `|L|·|R|` for a join or a
    /// product — `db.rows_scanned` by the rows visible at `τ`,
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
        let distinct_v_below_50 = (0..50)
            .filter(|&k| live(k))
            .map(|k| k % 10)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        // (statement, tables named, rows copied out of storage)
        let cases: [(&str, &[&str], u64); 12] = [
            ("SELECT * FROM big WHERE k = 7", &["big"], 1),
            (
                "SELECT * FROM big WHERE k >= 100 AND k < 200",
                &["big"],
                big(&|k| (100..200).contains(&k)),
            ),
            // A π copies a row only when it starts a group.
            (
                "SELECT v FROM big WHERE k < 50",
                &["big"],
                distinct_v_below_50,
            ),
            (
                "SELECT k FROM big EXCEPT SELECT k FROM small",
                &["big", "small"],
                big_live + small_live,
            ),
            (
                "SELECT * FROM big JOIN small ON big.k = small.k",
                &["big", "small"],
                big_live + small_live,
            ),
            // A bare × keeps its left input's rows and hashes its right's.
            (
                "SELECT * FROM big, small",
                &["big", "small"],
                big_live + small_live,
            ),
            ("SELECT * FROM big", &["big"], big_live),
            // A `GROUP BY` keeps what its aggregate reads, never a row:
            // `COUNT(*)` the group's size, `AVG` its values.
            ("SELECT v, COUNT(*) FROM big GROUP BY v", &["big"], 0),
            ("SELECT COUNT(*) FROM big WHERE k < 50", &["big"], 0),
            ("SELECT v, AVG(k) FROM big GROUP BY v", &["big"], 0),
            // HAVING's σ reads the bare aggregate's Klug rows, so each
            // grouped row is held, once: straight from the scan, not
            // through a copy of the table first.
            (
                "SELECT v, COUNT(*) FROM big GROUP BY v HAVING COUNT(*) > 1",
                &["big"],
                big_live,
            ),
            // A write finds its rows with the read's scan. Last: it
            // removes the row.
            ("DELETE FROM big WHERE k = 7", &["big"], 1),
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
            let (before, storage_before) = (db.stats(), storage(&db));
            db.execute(sql).unwrap();
            let (after, storage_after) = (db.stats(), storage(&db));
            assert_eq!(after.rows_copied - before.rows_copied, copied, "{sql}");
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
        let explain = |db: &mut Database| {
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
        let before = db.stats();
        db.read_view("deg25").unwrap();
        let fresh = db.stats();
        assert_eq!(
            (fresh.rows_scanned, fresh.rows_copied),
            (before.rows_scanned, before.rows_copied),
            "a fresh view scans nothing"
        );
        assert_eq!(
            db.profile_stats().sampled,
            0,
            "a view read has no operators"
        );
        db.explain_analyze("SELECT * FROM pol").unwrap();
        assert_eq!(db.stats().queries, before.queries + 2);
        let s = db.profile_stats();
        let (label, _) = s.last.as_ref().expect("explain analyze is always sampled");
        assert!(label.contains("pol"), "{label}");
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
