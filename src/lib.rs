//! # exptime — Expiration Times for Data Management
//!
//! A complete Rust implementation of the system described in
//!
//! > Albrecht Schmidt, Christian S. Jensen, Simonas Šaltenis.
//! > *Expiration Times for Data Management.* ICDE 2006.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`core`] — the expiration-time data model and algebra: relations with
//!   per-tuple expiration times, the SPCU operators plus aggregation and
//!   difference, monotonicity classification, contributing sets and the
//!   χ/ν machinery, Schrödinger validity intervals, Theorem 3 patch
//!   queues, materialised views, and the algebraic rewriter.
//! * [`storage`] — heap tables, expiration indexes (binary heap,
//!   hierarchical timing wheel, scan baseline), ordered secondary indexes.
//! * [`sql`] — a SQL subset with `EXPIRES` clauses: lexer, parser,
//!   planner.
//! * [`engine`] — the assembled DBMS: logical clock, eager/lazy removal,
//!   triggers, constraints, virtual and materialised views.
//! * [`replica`] — the loosely-coupled replica simulation with message
//!   accounting.
//! * [`obs`] — the zero-dependency observability layer: the metrics
//!   registry (counters, gauges, latency histograms), the structured
//!   expiration-event stream, and the JSON snapshot export.
//! * [`wal`] — the expiration-aware write-ahead log: CRC-framed records,
//!   group commit, binary checkpoints that snapshot only live rows, and
//!   committed-prefix crash recovery that skips already-expired inserts.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use exptime_core as core;
pub use exptime_engine as engine;
pub use exptime_lint as lint;
pub use exptime_obs as obs;
pub use exptime_policy as policy;
pub use exptime_replica as replica;
pub use exptime_sql as sql;
pub use exptime_storage as storage;
pub use exptime_wal as wal;

/// One-stop prelude: the engine plus the most used core types.
pub mod prelude {
    pub use exptime_core::prelude::*;
    pub use exptime_engine::{
        Constraint, Database, DbConfig, DbError, DbResult, Durability, ExecResult, Removal,
    };
    pub use exptime_replica::{ReadOutcome, Replica};
}
