//! # exptime-replica
//!
//! A simulation of the paper's motivating deployment: **loosely-coupled
//! systems** (Web Services, mobile/ad-hoc networks) where a client holds
//! materialised query results and connectivity to the data source is
//! intermittent and expensive. The paper's core argument is that
//! expiration times let such results be maintained *"by looking only at
//! the expiration times of the tuples of the query results and without
//! referring back to the base relations"*.
//!
//! The crate holds the expiration-aware side of that argument. A
//! [`replica::Replica`] subscribes to views over a server
//! [`exptime_engine::Database`]; tuples expire locally, and only a
//! non-monotonic view whose `texp(e)` passes needs a sync (zero for
//! monotonic views, per Theorem 1). Every interaction crosses one counted
//! link, [`fault::FaultyLink`], which can also be taken down to model
//! intermittent connectivity. Experiment E6 (`exptime-bench`) sets the
//! replica against the strawmen a system without expiration times must
//! run — a server that pushes a notice for every tuple leaving the result,
//! and a client that polls — over the same link.
//!
//! ## Chaos hardening
//!
//! Real links drop, duplicate, reorder, delay, and partition — the
//! paper's "volatile settings". [`fault::FaultyLink`] injects exactly
//! those faults under a deterministic seeded RNG (every schedule
//! replayable from its seed), and [`session`] is a sequence-numbered,
//! idempotent session protocol with retry/backoff on top. The one
//! [`replica::Replica`] always syncs through it — over a fault-free link
//! from [`replica::Replica::new`], over a faulty one from
//! [`replica::Replica::with_faults`] — and converges back to the server's
//! truth after any fault schedule: the invariant the chaos property tests
//! in `tests/replica_chaos.rs` enforce.

#![forbid(unsafe_code)]

pub mod fault;
pub mod replica;
pub mod session;

pub use fault::{Dir, Fate, FaultRecord, FaultSpec, FaultyLink, LinkStats};
pub use replica::{ReadOutcome, Replica};
pub use session::{tuple_digest, Frame, Payload, RetryPolicy, SessionStats};

use exptime_engine::DbError;

/// Errors on replica sync paths. Library code returns these instead of
/// panicking; only tests assert.
#[derive(Debug)]
pub enum ReplicaError {
    /// The link refused the operation (explicitly disconnected); nothing
    /// was transmitted.
    LinkRefused {
        /// The operation that was refused (subscribe, refresh, …).
        op: String,
    },
    /// The retry/backoff budget ran out without an acknowledged sync.
    Timeout {
        /// The operation that timed out.
        op: String,
        /// Transmission attempts made (first send + retries).
        attempts: u32,
        /// Logical ticks waited before giving up.
        waited: u64,
    },
    /// Local state has diverged beyond what can be served: the link is
    /// down and no locally-correct instant covers the requested time.
    Divergence {
        /// The affected view.
        view: String,
        /// Ticks between the requested time and the newest covered
        /// instant (`u64::MAX` when no instant is covered at all).
        behind: u64,
    },
    /// An underlying engine or evaluation error.
    Db(DbError),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::LinkRefused { op } => write!(f, "link refused: {op}"),
            ReplicaError::Timeout {
                op,
                attempts,
                waited,
            } => write!(
                f,
                "sync timeout: {op} after {attempts} attempt(s) over {waited} tick(s)"
            ),
            ReplicaError::Divergence {
                view,
                behind: u64::MAX,
            } => {
                write!(f, "replica diverged: view `{view}` has never synced")
            }
            ReplicaError::Divergence { view, behind } => {
                write!(
                    f,
                    "replica diverged: view `{view}` is {behind} tick(s) behind"
                )
            }
            ReplicaError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<DbError> for ReplicaError {
    fn from(e: DbError) -> Self {
        ReplicaError::Db(e)
    }
}

impl From<exptime_core::error::Error> for ReplicaError {
    fn from(e: exptime_core::error::Error) -> Self {
        ReplicaError::Db(e.into())
    }
}

/// Replica errors map onto the engine's refused/late-sync variants so
/// engine-level callers can treat a replica like any other data source.
impl From<ReplicaError> for DbError {
    fn from(e: ReplicaError) -> Self {
        match e {
            ReplicaError::LinkRefused { op } => DbError::Unavailable(op),
            ReplicaError::Timeout { op, waited, .. } => DbError::Timeout { op, waited },
            ReplicaError::Divergence {
                view,
                behind: u64::MAX,
            } => DbError::Unavailable(format!("view `{view}` never synced")),
            ReplicaError::Divergence { view, behind } => {
                DbError::Unavailable(format!("view `{view}` diverged {behind} tick(s)"))
            }
            ReplicaError::Db(e) => e,
        }
    }
}

/// Result alias for replica sync paths.
pub type ReplicaResult<T> = Result<T, ReplicaError>;
