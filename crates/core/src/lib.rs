//! # exptime-core
//!
//! An implementation of the expiration-time relational data model and
//! algebra from:
//!
//! > Albrecht Schmidt, Christian S. Jensen, Simonas Šaltenis.
//! > *Expiration Times for Data Management.* ICDE 2006.
//!
//! Tuples carry **expiration times**: the instant at which they cease to be
//! current and silently leave the database — and every *materialised query
//! result computed from them*. The algebra propagates expiration times
//! through select, project, product, union, join, and intersection
//! (monotonic operators, whose materialisations stay valid forever —
//! Theorem 1) and through aggregation and difference (non-monotonic
//! operators, whose materialisations carry a finite expiration time
//! `texp(e)` and validity intervals, and can be *patched* instead of
//! recomputed — Theorem 3).
//!
//! ## Quick example
//!
//! ```
//! use exptime_core::prelude::*;
//!
//! // Figure 1 of the paper: user-profile tables with expiration times.
//! let schema = Schema::of(&[("uid", ValueType::Int), ("deg", ValueType::Int)]);
//! let mut pol = Relation::new(schema.clone());
//! pol.insert(tuple![1, 25], Time::new(10)).unwrap();
//! pol.insert(tuple![2, 25], Time::new(15)).unwrap();
//! pol.insert(tuple![3, 35], Time::new(10)).unwrap();
//!
//! let mut catalog = Catalog::new();
//! catalog.register("Pol", pol);
//!
//! // πexp_2(Pol): project onto the degree; duplicates keep the max texp.
//! let query = Expr::base("Pol").project([1]);
//! let result = eval(&query, &catalog, Time::ZERO, &EvalOptions::default()).unwrap();
//! assert_eq!(result.rel.texp(&tuple![25]), Some(Time::new(15)));
//! assert!(result.texp.is_infinite()); // monotonic: never recompute
//! ```

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod algebra;
pub mod catalog;
pub mod error;
pub mod hash;
pub mod interval;
pub mod materialize;
pub mod patch;
pub mod predicate;
pub mod relation;
pub mod rewrite;
pub mod schema;
pub mod schrodinger;
pub mod time;
pub mod tuple;
pub mod value;

/// Convenience re-exports of the most used items.
pub mod prelude {
    pub use crate::aggregate::{AggFunc, AggMode};
    pub use crate::algebra::ops::CriticalTuple;
    pub use crate::algebra::{eval, eval_profiled, EvalOptions, Expr, Materialized, PlanProfile};
    pub use crate::catalog::{Bindings, Catalog};
    pub use crate::error::{Error, Result};
    pub use crate::interval::{Interval, IntervalSet};
    pub use crate::materialize::{MaterializedView, RefreshDecision, RefreshPolicy, ViewStats};
    pub use crate::patch::PatchQueue;
    pub use crate::predicate::{CmpOp, Predicate};
    pub use crate::relation::{DuplicatePolicy, Relation};
    pub use crate::rewrite::{
        is_root_patchable, rewrite, Monotonicity, Soundness, StaticBound, TickBound,
    };
    pub use crate::schema::{Attribute, Schema};
    pub use crate::schrodinger::{QueryAnswer, QueryPolicy};
    pub use crate::time::{Clock, Time};
    pub use crate::tuple;
    pub use crate::tuple::Tuple;
    pub use crate::value::{Value, ValueType};
}
