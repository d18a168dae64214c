//! The view stage: the catalog of views, and how one is read.
//!
//! A view is a name for an expression. A *virtual* view is nothing more:
//! reading it is the query that names it, and wherever a query names a
//! view — virtual or materialised — [`Database::inline_views`] puts the
//! definition in its place before evaluation, so a SQL `SELECT … FROM v`
//! never serves `v`'s materialisation. A *materialised* view also keeps
//! its result ([`MaterializedView`]), and [`Database::read_view`] is what
//! serves it: expiration alone never costs a recomputation (Theorems 1–3),
//! a write to a base table does — the view remembers the write versions it
//! was materialised at — and the rows come out of the one read every
//! holder of a materialisation has, `Materialized::rows_at`.

use super::stored::Stored;
use super::{Database, DbError, DbResult};
use exptime_core::algebra::Expr;
use exptime_core::materialize::{MaterializedView, RefreshDecision, RemovalPolicy, ViewStats};
use exptime_core::relation::Relation;
use exptime_core::schema::Schema;
use exptime_lint::{Code, Diagnostic, LintReport, Severity};
use exptime_obs::QueryProfile;
use exptime_policy::Sliding;
use exptime_sql::ast::{Query, Statement};
use exptime_sql::span::Span;
use exptime_sql::unparse::statement_to_sql;
use exptime_storage::Table;
use std::collections::BTreeMap;
use std::time::Instant;

#[allow(clippy::large_enum_variant)] // few views exist; clarity over size
pub(super) enum ViewEntry {
    Virtual {
        expr: Expr,
        schema: Schema,
        /// The defining SQL query, when the view was created through SQL;
        /// see [`ViewEntry::create_sql`]. API-created views have none.
        definition: Option<Query>,
    },
    Materialized {
        view: MaterializedView,
        schema: Schema,
        /// See [`ViewEntry::Virtual::definition`].
        definition: Option<Query>,
        /// Write versions of the base tables at (re)materialisation time.
        /// Pure expiration never bumps these (the paper's machinery keeps
        /// the view fresh for free); inserts and explicit deletes do, and
        /// force a refresh on the next read.
        base_versions: Vec<(String, u64)>,
        /// What the static analyzer said about this view at creation time
        /// (DESIGN.md §11); kept in the catalog so `\lint` and
        /// [`Database::view_diagnostics`] can replay it without re-planning.
        diagnostics: LintReport,
    },
}

impl ViewEntry {
    pub(super) fn schema(&self) -> &Schema {
        match self {
            ViewEntry::Virtual { schema, .. } | ViewEntry::Materialized { schema, .. } => schema,
        }
    }

    pub(super) fn definition(&self) -> Option<&Query> {
        match self {
            ViewEntry::Virtual { definition, .. } | ViewEntry::Materialized { definition, .. } => {
                definition.as_ref()
            }
        }
    }

    pub(super) fn expr(&self) -> &Expr {
        match self {
            ViewEntry::Virtual { expr, .. } => expr,
            ViewEntry::Materialized { view, .. } => view.expr(),
        }
    }

    /// The kept result, for a materialised view.
    pub(super) fn materialized(&self) -> Option<&MaterializedView> {
        match self {
            ViewEntry::Virtual { .. } => None,
            ViewEntry::Materialized { view, .. } => Some(view),
        }
    }

    /// The `CREATE [MATERIALIZED] VIEW` statement that recreates the view
    /// as `name` — what the WAL logs, a checkpoint keeps and a dump prints.
    /// `None` for an API-created view: it has no SQL definition, so it is
    /// not durable.
    pub(super) fn create_sql(&self, name: &str) -> Option<String> {
        let stmt = Statement::CreateView {
            name: name.to_string(),
            materialized: self.materialized().is_some(),
            query: self.definition()?.clone(),
        };
        Some(statement_to_sql(&stmt))
    }
}

impl Database {
    /// Creates a materialised view over an algebra expression (view names
    /// inlined). The view maintains itself per the configured policies.
    ///
    /// # Errors
    ///
    /// Returns catalog or evaluation errors.
    pub fn create_materialized_view(&mut self, name: &str, expr: Expr) -> DbResult<()> {
        self.create_view_inner(name, expr, None, true)
    }

    /// Creates a virtual (non-materialised) view.
    ///
    /// # Errors
    ///
    /// Returns catalog or schema errors.
    pub fn create_view(&mut self, name: &str, expr: Expr) -> DbResult<()> {
        self.create_view_inner(name, expr, None, false)
    }

    pub(super) fn create_view_inner(
        &mut self,
        name: &str,
        expr: Expr,
        definition: Option<Query>,
        materialized: bool,
    ) -> DbResult<()> {
        let action = if materialized {
            "CREATE MATERIALIZED VIEW"
        } else {
            "CREATE VIEW"
        };
        self.guard_reserved(name, action)?;
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(DbError::Catalog(format!("`{name}` already exists")));
        }
        let expr = self.inline_views(&expr);
        let schema = expr.schema(&*self)?;
        let entry = if materialized {
            let mut view = MaterializedView::new(
                expr,
                &*self,
                self.clock.now(),
                self.config.eval,
                self.config.view_refresh,
                RemovalPolicy::Lazy,
            )?;
            view.attach_obs(&self.obs, &key);
            view.attach_tracer(&self.tracer);
            ViewEntry::Materialized {
                base_versions: base_versions(&self.tables, view.expr()),
                diagnostics: self.lint_materialization(&key, definition.as_ref(), &view),
                view,
                schema,
                definition,
            }
        } else {
            ViewEntry::Virtual {
                expr,
                schema,
                definition,
            }
        };
        let log_sql = self.wal.as_ref().and_then(|_| entry.create_sql(&key));
        self.views.insert(key, entry);
        if let Some(sql) = log_sql {
            self.wal_log_ddl(sql)?;
        }
        Ok(())
    }

    /// Drops a view.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Catalog`] for an unknown view.
    pub fn drop_view(&mut self, name: &str) -> DbResult<()> {
        self.guard_reserved(name, "DROP VIEW")?;
        let key = name.to_ascii_lowercase();
        self.views
            .remove(&key)
            .ok_or_else(|| DbError::Catalog(format!("unknown view `{name}`")))?;
        if self.wal.is_some() {
            self.wal_log_ddl(statement_to_sql(&Statement::DropView { name: key }))?;
        }
        Ok(())
    }

    /// Replaces view references with their defining expressions —
    /// materialised views included — so every expression bottoms out at
    /// base tables.
    #[must_use]
    pub fn inline_views(&self, expr: &Expr) -> Expr {
        // A stored definition was inlined when its view was created.
        expr.map_bases(&|name| {
            let entry = self.views.get(&name.to_ascii_lowercase())?;
            Some(entry.expr().clone())
        })
    }

    /// The views defined over base table `key`, materialised or not.
    pub(super) fn views_over<'a>(
        &'a self,
        key: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a ViewEntry)> {
        self.views.iter().filter(move |(_, entry)| {
            let bases = entry.expr().base_names();
            bases.iter().any(|b| b.eq_ignore_ascii_case(key))
        })
    }

    /// Reads a view at the current time. Materialised views serve from
    /// their local state when fresh (Theorems 1–3) and recompute otherwise;
    /// virtual views always evaluate.
    ///
    /// # Errors
    ///
    /// Returns catalog or evaluation errors.
    pub fn read_view(&mut self, name: &str) -> DbResult<Relation> {
        let key = name.to_ascii_lowercase();
        let nodes = match self.views.get(&key) {
            None => return Err(DbError::Catalog(format!("unknown view `{name}`"))),
            // Reading a virtual view is the query that names it.
            Some(ViewEntry::Virtual { .. }) => return Ok(self.query_expr(&Expr::Base(key))?.rel),
            Some(ViewEntry::Materialized { view, .. }) => view.expr().node_count(),
        };
        self.bill_query(Some(&key), |db| {
            let (rel, _) = db.read_materialized(&key)?;
            let bill = QueryProfile {
                label: format!("view {key}"),
                tuples_materialized: rel.len() as u64,
                change_points: nodes as u64,
                ..QueryProfile::default()
            };
            Ok((rel, bill))
        })
    }

    /// Patch-queue operations applied by every materialised view so far,
    /// differenced per statement to bill Theorem 3 work to the query that
    /// triggered it.
    pub(super) fn patches_applied_total(&self) -> u64 {
        let kept = self.views.values().filter_map(ViewEntry::materialized);
        kept.map(|view| view.stats().patches_applied).sum()
    }

    /// Refreshes (if due) and reads the materialised view `key`, without
    /// query accounting — the callers, [`Database::read_view`] and an
    /// EXPLAIN ANALYZE that names the view, each count one query — and
    /// says which Theorem (if any) saved the recomputation.
    pub(super) fn read_materialized(
        &mut self,
        key: &str,
    ) -> DbResult<(Relation, Option<RefreshDecision>)> {
        let now = self.clock.now();
        let Some(ViewEntry::Materialized {
            view,
            base_versions: seen,
            ..
        }) = self.views.get_mut(key)
        else {
            return Err(not_materialized(key));
        };
        // Views must see base-table *updates* (inserts / explicit
        // deletes / expiration-time changes), which the paper's
        // expiration-only maintenance model excludes: compare write
        // versions and force a refresh when they moved.
        let wanted = base_versions(&self.tables, view.expr());
        // Storage is touched only if the view decides to recompute: a
        // fresh view with unmoved base versions is a local read.
        let stored = Stored {
            tables: &self.tables,
            alloc: &self.alloc,
            scanned: &self.scanned,
        };
        let refresh_start = Instant::now();
        let mut sp = self.tracer.span("view.refresh");
        sp.attr("view", key);
        if let Some(t) = now.finite() {
            sp.at(t);
        }
        if *seen != wanted {
            view.force_refresh(&stored, now)?;
            *seen = wanted;
        }
        let rel = view.read(&stored, now)?;
        let decision = view.last_decision();
        if let Some(d) = decision {
            sp.attr("decision", d);
        }
        drop(sp);
        // Refresh-latency SLO: maintaining + serving this view.
        let ns = super::duration_ns(refresh_start.elapsed());
        self.monitor
            .observe_refresh(key, ns, now.finite().unwrap_or(u64::MAX));
        Ok((rel, decision))
    }

    /// Pushes every materialised view's `texp` into the staleness
    /// monitor's `view.<name>.ttx` gauges.
    pub(super) fn observe_view_staleness(&self) {
        let now = self.clock.now().finite().unwrap_or(u64::MAX);
        let items = self.views.iter().filter_map(|(name, entry)| {
            let view = entry.materialized()?;
            Some((name.as_str(), view.texp().finite(), view.last_decision()))
        });
        self.monitor.observe_views(now, items.collect::<Vec<_>>());
    }

    /// The names of all views, in name order.
    #[must_use]
    pub fn view_names(&self) -> Vec<String> {
        self.views.keys().cloned().collect()
    }

    /// Statistics of a materialised view (recomputations, local reads, …).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Catalog`] if the name is not a materialised view.
    pub fn view_stats(&self, name: &str) -> DbResult<ViewStats> {
        let entry = self.views.get(&name.to_ascii_lowercase());
        let view = entry.and_then(ViewEntry::materialized);
        Ok(view.ok_or_else(|| not_materialized(name))?.stats())
    }

    /// The diagnostics the analyzer recorded when a materialised view was
    /// created (including the operational `W101` SLO check).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Catalog`] if the name is not a materialised view.
    pub fn view_diagnostics(&self, name: &str) -> DbResult<LintReport> {
        match self.views.get(&name.to_ascii_lowercase()) {
            Some(ViewEntry::Materialized { diagnostics, .. }) => Ok(diagnostics.clone()),
            _ => Err(not_materialized(name)),
        }
    }

    /// Analyzer pass run at `CREATE MATERIALIZED VIEW` time: the static
    /// checks plus the operational `W101` — the view's first refresh falls
    /// due within the SLO's tolerated trigger lateness, so a legally late
    /// trigger would miss the refresh window — and `W102`. Every
    /// diagnostic is published ([`Database::publish_diagnostics`]).
    fn lint_materialization(
        &self,
        name: &str,
        definition: Option<&Query>,
        view: &MaterializedView,
    ) -> LintReport {
        let opts = self.analyzer_options(true);
        let mut diagnostics = exptime_lint::analyze(definition, view.expr(), &opts).diagnostics;
        let lateness = self.config.slo.max_trigger_lateness;
        let due_in = view.texp().finite().zip(self.clock.now().finite());
        if let Some(window) = due_in.map(|(texp, now)| texp.saturating_sub(now)) {
            if window <= lateness {
                diagnostics.push(
                    Diagnostic::new(
                        Code::W101,
                        Severity::Warning,
                        format!(
                            "view refresh falls due in {window} tick(s), within the SLO's \
                             tolerated trigger lateness of {lateness}; a legally late trigger \
                             misses the refresh window"
                        ),
                        Span::DUMMY,
                    )
                    .with_suggestion(
                        "tighten SloConfig::max_trigger_lateness, switch to eager removal, \
                         or give the view's inputs longer expiration times"
                            .to_string(),
                    ),
                );
            }
        }
        // W102: the view materialises over a base whose TTL slides — each
        // touch bumps the base's write version and forces a refresh.
        for base in view.expr().base_names() {
            let key = base.to_ascii_lowercase();
            let policy = self.policies.get(&key).map(|tp| tp.policy);
            if policy.is_some_and(|p| p.sliding != Sliding::Absolute) {
                diagnostics.push(sliding_matview_diag(&key, name));
            }
        }
        let report = LintReport::new(diagnostics);
        self.publish_diagnostics(name, &report.diagnostics);
        report
    }
}

/// The write version of every base table `expr` names: what a materialised
/// view over it remembers, and compares on each read.
fn base_versions(tables: &BTreeMap<String, Table>, expr: &Expr) -> Vec<(String, u64)> {
    let version = |name: String| {
        let key = name.to_ascii_lowercase();
        let v = tables.get(&key).map_or(0, Table::write_version);
        (key, v)
    };
    expr.base_names().into_iter().map(version).collect()
}

fn not_materialized(name: &str) -> DbError {
    DbError::Catalog(format!("`{name}` is not a materialised view"))
}

/// The `W102` diagnostic: a materialised view over a base table whose
/// TTL slides. Emitted both when the view is created over an already-
/// sliding base and when `ALTER TABLE … SET TTL … SLIDING` arrives
/// under an existing view.
pub(super) fn sliding_matview_diag(table: &str, view: &str) -> Diagnostic {
    Diagnostic::new(
        Code::W102,
        Severity::Warning,
        format!(
            "materialised view `{view}` reads `{table}`, whose TTL policy slides: \
             every touch rewrites a base `texp`, so the monotone-expiration \
             assumption behind Theorems 1–3 no longer holds and each touched \
             read forces a view refresh"
        ),
        Span::DUMMY,
    )
    .with_suggestion(format!(
        "make `{table}`'s TTL absolute, or use a virtual (non-materialised) view"
    ))
}
