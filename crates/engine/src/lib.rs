//! # exptime-engine
//!
//! A single-node expiration-time DBMS assembled from the `exptime-*`
//! crates: tables with expiration indexes, a logical clock whose advance
//! processes expirations and fires triggers, integrity constraints,
//! virtual and materialised views that maintain themselves independently
//! of the base data (paper Theorems 1–3), and a SQL front end in which
//! expiration times appear only on `INSERT`/`UPDATE` — exactly the
//! transparency the paper argues for.
//!
//! ```
//! use exptime_engine::{Database, DbConfig};
//!
//! let mut db = Database::new(DbConfig::default());
//! db.execute("CREATE TABLE sessions (sid INT, uid INT)").unwrap();
//! db.execute("INSERT INTO sessions VALUES (1, 42) EXPIRES IN 30 TICKS").unwrap();
//! db.tick(29);
//! assert_eq!(db.execute("SELECT * FROM sessions").unwrap().rows().unwrap().len(), 1);
//! db.tick(1); // the session silently vanishes — no DELETE statement anywhere
//! assert!(db.execute("SELECT * FROM sessions").unwrap().rows().unwrap().is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod constraint;
pub mod db;
pub mod durability;
pub mod shared;
pub mod telemetry;
pub mod trigger;

pub use constraint::{Constraint, ConstraintViolation};
pub use db::{
    Database, DbConfig, DbError, DbForecast, DbResult, DbStats, ExecResult, Explain,
    ForecastConfig, PolicyStatus, Removal,
};
pub use durability::{CheckpointStats, Durability, RecoveryStats, WalStatus};
pub use exptime_core::algebra::{ProfileStats, Profiler};
pub use exptime_lint::{audit, AuditGraph, AuditReport, BoundBasis, StaleServing};
pub use exptime_obs::{
    Health, HealthStatus, HorizonForecast, SloConfig, StalenessBound, StormBucket, TraceContext,
    Tracer, ViewHealth,
};
pub use exptime_policy::{Clamp, MaintenanceWindow, Sliding, TouchKind, TtlPolicy};
pub use shared::{SharedDatabase, TickerHandle};
pub use telemetry::{
    TelemetryConfig, TelemetryStatus, TELEMETRY_HEALTH, TELEMETRY_METRICS, TELEMETRY_SCHEMA,
};
pub use trigger::{ExpirationEvent, TriggerFn, TriggerManager};
