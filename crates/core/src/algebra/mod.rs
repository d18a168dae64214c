//! The expiration-time relational algebra (paper Section 2).
//!
//! * [`ops`] — the kernels evaluation runs (⋈, ×, γ and −: Equations 2,
//!   5, 8 and 10) and the expression-level metadata of the non-monotonic
//!   operators; the operators read literally, one function per equation,
//!   are the `exptime-literal` crate.
//! * [`expr`] — the composable expression AST with schema inference,
//!   monotonicity classification (Section 2.5), and a paper-style renderer.
//! * [`mod@eval`] — the evaluator: materialises an expression at a time `τ`,
//!   producing the result relation, the expression expiration time
//!   `texp(e)`, the Schrödinger validity intervals `I(e)` (Section 3.4),
//!   and optionally a difference patch queue (Theorem 3).

pub mod eval;
pub mod expr;
pub mod ops;
pub mod profile;

pub use eval::{eval, EvalOptions, Materialized};
pub use expr::Expr;
pub use profile::{eval_profiled, OperatorAgg, PlanProfile, ProfileStats, Profiler};
