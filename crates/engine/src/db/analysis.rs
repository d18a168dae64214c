//! The analyzer stage: what `exptime-lint` says about the database, and
//! when it says it. Theorems 1–3 give static analysis one job — deciding
//! which materialisations stay valid as their inputs expire — and this
//! module asks it, over one statement ([`Database::lint`]), over one new
//! materialised view ([`Database::lint_materialization`]), and over the
//! whole catalog ([`Database::audit`]), and publishes every finding as a
//! `lint_diagnostic` event.
//!
//! Each rule of the stage is written once:
//!
//! * **The analyzer reads the views' refresh policy**: a plan is analysed
//!   under [`VIEW_REFRESH`], the constant the views are built with, so
//!   X002 is reported exactly for the views that recompute.
//! * **`W102`**: a materialised view over a base whose TTL slides
//!   ([`Database::w102`]) — checked when the view is created over
//!   a sliding base and when a sliding policy arrives under the view.
//! * **A policy change voids the audit** ([`Database::policy_changed`]):
//!   the staleness bounds it proved are cleared until the next audit.

use super::views::VIEW_REFRESH;
use super::{Database, DbError, DbResult};
use exptime_core::materialize::{MaterializedView, RefreshPolicy};
use exptime_core::rewrite::TickBound;
use exptime_lint::{Code, Diagnostic, LintReport, Severity};
use exptime_obs::{EventKind, StalenessBound};
use exptime_policy::Sliding;
use exptime_sql::ast::{Query, Statement};
use exptime_sql::plan_query;
use exptime_sql::span::Span;

/// How the analyzer should read a plan: a view patches exactly when
/// [`VIEW_REFRESH`] says so, and reads are not Schrödinger reads.
fn analyzer_options(materialized: bool) -> exptime_lint::AnalyzerOptions {
    exptime_lint::AnalyzerOptions {
        materialized,
        patch_root_difference: VIEW_REFRESH == RefreshPolicy::Patch,
        schrodinger: false,
    }
}

impl Database {
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
    pub fn lint(&self, sql: &str) -> DbResult<LintReport> {
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
        let expr = self.inline_views(&plan_query(query, self)?);
        let opts = analyzer_options(materialized);
        Ok(exptime_lint::analyze(Some(query), &expr, &opts))
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

    /// Publishes analyzer findings about `subject`: one `lint_diagnostic`
    /// event each, and the `lint.diagnostics` counter (which exists only
    /// once something has been found).
    fn publish_diagnostics(&self, subject: &str, diagnostics: &[Diagnostic]) {
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

    /// Analyzer pass run at `CREATE MATERIALIZED VIEW` time: the static
    /// checks plus the operational `W101` — the view's first refresh falls
    /// due within the SLO's tolerated trigger lateness, so a legally late
    /// trigger would miss the refresh window — and `W102`. Every
    /// diagnostic is published ([`Database::publish_diagnostics`]).
    pub(super) fn lint_materialization(
        &self,
        name: &str,
        definition: Option<&Query>,
        view: &MaterializedView,
    ) -> LintReport {
        let opts = analyzer_options(true);
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
        for base in view.expr().base_names() {
            diagnostics.extend(self.w102(&base.to_ascii_lowercase(), name));
        }
        let report = LintReport::new(diagnostics);
        self.publish_diagnostics(name, &report.diagnostics);
        report
    }

    /// What a change to `table`'s TTL policy (already in the catalog) means
    /// to the analyzer: the bounds the last audit proved no longer hold —
    /// loosening a clamp can admit longer-lived rows than the proof
    /// covered — so they are cleared until the next audit re-derives them,
    /// and every materialised view over a base that now slides gets its
    /// `W102`.
    pub(super) fn policy_changed(&self, table: &str) {
        self.monitor.set_staleness_bounds(std::iter::empty());
        for (view, entry) in self.views_over(table) {
            if entry.materialized().is_some() {
                self.publish_diagnostics(view, self.w102(table, view).as_slice());
            }
        }
    }

    /// The `W102` diagnostic, when base `table`'s TTL slides under the
    /// materialised view `view`: every touch rewrites a base `texp` and
    /// bumps its write version, which forces a refresh.
    fn w102(&self, table: &str, view: &str) -> Option<Diagnostic> {
        let policy = self.policies.get(table)?.policy;
        if policy.sliding == Sliding::Absolute {
            return None;
        }
        let diag = Diagnostic::new(
            Code::W102,
            Severity::Warning,
            format!(
                "materialised view `{view}` reads `{table}`, whose TTL policy slides: \
                 every touch rewrites a base `texp`, so the monotone-expiration \
                 assumption behind Theorems 1–3 no longer holds and each touched \
                 read forces a view refresh"
            ),
            Span::DUMMY,
        );
        Some(diag.with_suggestion(format!(
            "make `{table}`'s TTL absolute, or use a virtual (non-materialised) view"
        )))
    }

    /// Registers (or, with `None`, clears) the stale-serving endpoint a
    /// net server exposes over this database, so [`Database::audit`] can
    /// reason about degraded reads. Called by `NetServer::serve`.
    pub fn set_serving_config(&mut self, serving: Option<exptime_lint::StaleServing>) {
        self.serving = serving;
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
        let mut graph = exptime_lint::AuditGraph::empty(now_t.finite().unwrap_or(u64::MAX));
        for (name, table) in &self.tables {
            // The latest-expiring live row: an eternal one is unbounded,
            // an empty table is exact.
            let f = table.expiry_horizon(now_t);
            let live_horizon = if f.eternal() > 0 {
                TickBound::Unbounded
            } else {
                TickBound::Finite(f.latest())
            };
            graph.tables.push(exptime_lint::TableNode {
                name: name.clone(),
                policy: self.policies.get(name).map(|tp| tp.policy),
                live_horizon,
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
}
