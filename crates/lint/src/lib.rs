//! `exptime-lint`: static expiration-soundness analysis.
//!
//! Implements the diagnostics engine described in DESIGN.md §11: queries
//! and algebra plans are analysed *before* execution against the results
//! of "Expiration Times for Data Management" (Schmidt, Jensen, Šaltenis;
//! ICDE 2006), and every hazard — a non-monotonic operator buried under
//! monotonic ones, a materialised difference with finite expiration, an
//! aggregate whose validity dies at the next change point — becomes a
//! coded, spanned, severity-ranked [`Diagnostic`].
//!
//! Beyond per-statement analysis, the crate hosts `exptime-audit`
//! ([`audit`] over an [`AuditGraph`]): a whole-database pass that walks
//! base tables → views → stale-serving endpoints → telemetry retention
//! and derives a provable worst-case staleness bound per view and per
//! endpoint (DESIGN.md §11.1), plus the cross-layer diagnostics
//! `X005`/`W103`–`W105`.
//!
//! The same crate hosts the repo-invariant checks (`R001`–`R012`, the
//! `repolint` binary) that `scripts/ci.sh` runs over the workspace's own
//! sources.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod audit;
pub mod diag;
pub mod graph;
pub mod render;
pub mod repo;

pub use analyze::{analyze, AnalyzerOptions};
pub use audit::{audit, AuditReport, EndpointAudit, TableAudit, ViewAudit};
pub use diag::{Code, Diagnostic, LintReport, Severity};
pub use graph::{AuditGraph, BoundBasis, StaleServing, TableNode, TelemetryNode, ViewNode};
pub use render::render;
pub use repo::{check_repo, RepoViolation};
