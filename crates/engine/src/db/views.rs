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
use exptime_core::algebra::{EvalOptions, Expr};
use exptime_core::materialize::{
    MaterializedView, RefreshDecision, RefreshPolicy, RemovalPolicy, ViewStats,
};
use exptime_core::relation::Relation;
use exptime_core::schema::Schema;
use exptime_lint::LintReport;
use exptime_sql::ast::{Query, Statement};
use exptime_storage::Table;
use std::collections::BTreeMap;
use std::time::Instant;

/// How every materialised view reacts when its materialisation expires.
/// The analyzer reads the same constant (`db/analysis.rs`), so X002 is
/// reported exactly for the views that recompute.
pub(super) const VIEW_REFRESH: RefreshPolicy = RefreshPolicy::Recompute;

#[allow(clippy::large_enum_variant)] // few views exist; clarity over size
pub(super) enum ViewEntry {
    Virtual {
        expr: Expr,
        schema: Schema,
        /// The defining SQL query, when the view was created through SQL;
        /// see [`ViewEntry::create_stmt`]. API-created views have none.
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
    pub(super) fn create_stmt(&self, name: &str) -> Option<Statement> {
        Some(Statement::CreateView {
            name: name.to_string(),
            materialized: self.materialized().is_some(),
            query: self.definition()?.clone(),
        })
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
                EvalOptions::default(),
                VIEW_REFRESH,
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
        let create = entry.create_stmt(&key);
        self.views.insert(key, entry);
        create.map_or(Ok(()), |stmt| self.log_ddl(stmt))
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
        self.log_ddl(Statement::DropView { name: key })
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
        match self.views.get(&key) {
            None => return Err(DbError::Catalog(format!("unknown view `{name}`"))),
            // Reading a virtual view is the query that names it.
            Some(ViewEntry::Virtual { .. }) => return Ok(self.query_expr(&Expr::Base(key))?.rel),
            Some(ViewEntry::Materialized { .. }) => {}
        }
        self.bill_query(Some(&key), |db| {
            let (rel, _) = db.read_materialized(&key)?;
            let rows = rel.len();
            Ok((rel, rows))
        })
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
            counters: &self.counters,
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
