//! Baseline maintenance strategies without expiration awareness.
//!
//! These are the comparison points for experiment E6 — what a
//! loosely-coupled system must do when the client's cached query result
//! cannot expire tuples on its own:
//!
//! * [`DeletePushReplica`] — the server tracks the client's cached result
//!   and pushes a notice for every tuple that leaves (or, for
//!   non-monotonic views, enters) it. This is the paper's "an
//!   administrator or user would issue an explicit delete statement"
//!   world, mechanised: message cost Θ(result changes).
//! * [`PollingReplica`] — the client re-fetches the whole result on every
//!   read: message cost Θ(reads), payload Θ(reads × result size).

use crate::link::Link;
use crate::session::Change;
use crate::ReplicaResult;
use exptime_core::algebra::{eval, EvalOptions, Expr};
use exptime_core::relation::Relation;
use exptime_engine::Database;

/// A cache kept consistent by server-pushed change notices.
#[derive(Debug)]
pub struct DeletePushReplica {
    expr: Expr,
    cache: Relation,
    link: Link,
}

impl DeletePushReplica {
    /// Subscribes: one round trip shipping the initial result.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn subscribe(expr: Expr, server: &Database) -> ReplicaResult<Self> {
        let expr = server.inline_views(&expr);
        let m = eval(&expr, server, server.now(), &EvalOptions::default())?;
        let mut link = Link::new();
        link.round_trip(m.rel.len() as u64);
        Ok(DeletePushReplica {
            expr,
            cache: m.rel,
            link,
        })
    }

    /// Server-side maintenance step: recomputes the result and pushes one
    /// notice per changed tuple (deletion or insertion). Call whenever the
    /// server clock has advanced — in a real system this is the server's
    /// change-detection job.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; a schema mismatch on apply surfaces
    /// as [`crate::ReplicaError::Db`] instead of panicking.
    pub fn server_sync(&mut self, server: &Database) -> ReplicaResult<()> {
        let fresh = eval(&self.expr, server, server.now(), &EvalOptions::default())?.rel;
        // Deletions, then insertions (differences grow as S-side tuples
        // expire): one notice each.
        for _ in Change::diff(&mut self.cache, &fresh)? {
            self.link.push(1);
        }
        Ok(())
    }

    /// Reads the cache (local, free).
    #[must_use]
    pub fn read(&self) -> &Relation {
        &self.cache
    }

    /// Link statistics.
    #[must_use]
    pub fn link_stats(&self) -> crate::link::LinkStats {
        self.link.stats()
    }
}

/// A client that re-fetches the full result on every read.
#[derive(Debug)]
pub struct PollingReplica {
    expr: Expr,
    link: Link,
}

impl PollingReplica {
    /// Creates the poller (no initial transfer; the first read fetches).
    #[must_use]
    pub fn new(expr: Expr, server: &Database) -> Self {
        PollingReplica {
            expr: server.inline_views(&expr),
            link: Link::new(),
        }
    }

    /// Fetches the current result: one round trip per read.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn read(&mut self, server: &Database) -> ReplicaResult<Relation> {
        let rel = eval(&self.expr, server, server.now(), &EvalOptions::default())?.rel;
        self.link.round_trip(rel.len() as u64);
        Ok(rel)
    }

    /// Link statistics.
    #[must_use]
    pub fn link_stats(&self) -> crate::link::LinkStats {
        self.link.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Replica;
    use exptime_core::materialize::RefreshPolicy;
    use exptime_core::predicate::Predicate;
    use exptime_engine::{Database, DbConfig};

    fn server() -> Database {
        let mut db = Database::new(DbConfig::default());
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
    fn delete_push_pays_per_expiry() {
        let mut srv = server();
        let mut cache = DeletePushReplica::subscribe(Expr::base("pol"), &srv).unwrap();
        for _ in 0..20 {
            srv.tick(1);
            cache.server_sync(&srv).unwrap();
            let truth = srv.execute("SELECT * FROM pol").unwrap();
            assert!(cache.read().tuples_eq_at(truth.rows().unwrap(), srv.now()));
        }
        // 3 rows expired → 3 pushes (plus the initial round trip).
        let s = cache.link_stats();
        assert_eq!(s.pushes, 3);
        assert_eq!(s.requests, 1);
    }

    #[test]
    fn delete_push_handles_growing_differences() {
        let mut srv = server();
        let diff = Expr::base("pol")
            .project([0])
            .difference(Expr::base("el").project([0]));
        let mut cache = DeletePushReplica::subscribe(diff, &srv).unwrap();
        for _ in 0..20 {
            srv.tick(1);
            cache.server_sync(&srv).unwrap();
        }
        let s = cache.link_stats();
        // ⟨2⟩ appears at 3 (+1), ⟨1⟩ appears at 5 (+1), ⟨1⟩,⟨3⟩ leave at
        // 10 (+2), ⟨2⟩ leaves at 15 (+1) = 5 pushes.
        assert_eq!(s.pushes, 5);
    }

    #[test]
    fn polling_pays_per_read() {
        let mut srv = server();
        let mut poll = PollingReplica::new(Expr::base("pol"), &srv);
        for _ in 0..10 {
            srv.tick(1);
            let rel = poll.read(&srv).unwrap();
            let truth = srv.execute("SELECT * FROM pol").unwrap();
            assert!(rel.set_eq(truth.rows().unwrap()));
        }
        let s = poll.link_stats();
        assert_eq!(s.requests, 10);
        assert_eq!(s.responses, 10);
    }

    #[test]
    fn expiration_aware_beats_both_baselines_on_monotonic_views() {
        let mut srv = server();
        let view = Expr::base("pol").select(Predicate::attr_eq_const(1, 25));

        let mut exp_aware = Replica::new(RefreshPolicy::Recompute);
        exp_aware.subscribe("v", view.clone(), &srv).unwrap();
        let mut push = DeletePushReplica::subscribe(view.clone(), &srv).unwrap();
        let mut poll = PollingReplica::new(view, &srv);

        for _ in 0..20 {
            srv.tick(1);
            exp_aware.read("v", &srv).unwrap();
            push.server_sync(&srv).unwrap();
            poll.read(&srv).unwrap();
        }
        let a = exp_aware.link_stats().total_messages();
        let b = push.link_stats().total_messages();
        let c = poll.link_stats().total_messages();
        assert!(a < b, "expiration-aware ({a}) < delete-push ({b})");
        assert!(b < c, "delete-push ({b}) < polling ({c})");
        assert_eq!(a, 2, "only the subscribe round trip");
    }
}
