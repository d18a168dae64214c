//! The expiration-aware replica.
//!
//! A [`Replica`] holds materialised views locally. Tuples expire out of
//! the local copies with no communication at all; only a non-monotonic
//! view whose expression expiration time `texp(e)` has passed needs a
//! round trip to the server — and a difference view maintained with the
//! Theorem 3 patch queue needs none, ever. Under disconnection the replica
//! degrades gracefully via Schrödinger semantics: it serves the query
//! moved backward to the latest instant at which its materialisation is
//! known correct.

use crate::link::Link;
use crate::{ReplicaError, ReplicaResult};
use exptime_core::algebra::{EvalOptions, Expr, Materialized};
use exptime_core::materialize::{MaterializedView, RefreshDecision, RefreshPolicy, RemovalPolicy};
use exptime_core::relation::Relation;
use exptime_core::time::Time;
use exptime_engine::{Database, DbError};
use std::collections::BTreeMap;

/// How a replica read was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Served from the local materialisation; no communication.
    Local,
    /// Required a round trip to the server (view refresh).
    Refreshed,
    /// Link down; served a stale-but-once-correct state as of the returned
    /// time (Schrödinger move-backward).
    Stale(Time),
    /// Link down and no usable local state.
    Unavailable,
}

/// A read the local state must answer alone (Schrödinger move-backward):
/// [`Materialized::answer`] for `now` — the rows as of the newest instant
/// `m` covers, patch queue included — reported as a divergence event of
/// that many ticks (`u64::MAX` when `m` covers nothing and answers `None`).
pub(crate) fn degraded(
    m: &Materialized,
    view: &str,
    now: Time,
    obs: &exptime_obs::Obs,
) -> Option<(Relation, Time)> {
    let answer = m.answer(now);
    let behind = answer.as_ref().map_or(u64::MAX, |(_, back)| {
        let ticks = now.finite().zip(back.finite());
        ticks.map_or(0, |(n, b)| n.saturating_sub(b))
    });
    obs.emit_with(now.finite(), || exptime_obs::EventKind::ReplicaDivergence {
        view: view.to_string(),
        behind,
    });
    answer
}

/// A client holding expiration-aware materialised views.
#[derive(Debug)]
pub struct Replica {
    views: BTreeMap<String, MaterializedView>,
    link: Link,
    refresh: RefreshPolicy,
    obs: exptime_obs::Obs,
}

impl Replica {
    /// A replica with a fresh link.
    #[must_use]
    pub fn new(refresh: RefreshPolicy) -> Self {
        let obs = exptime_obs::Obs::new();
        let mut link = Link::new();
        link.attach_obs(&obs);
        Replica {
            views: BTreeMap::new(),
            link,
            refresh,
            obs,
        }
    }

    /// The replica's observability handle: its views' `view.<name>.*`
    /// metrics plus link-traffic and divergence events.
    #[must_use]
    pub fn obs(&self) -> &exptime_obs::Obs {
        &self.obs
    }

    /// The link (to inspect stats or toggle connectivity).
    pub fn link(&mut self) -> &mut Link {
        &mut self.link
    }

    /// Link statistics.
    #[must_use]
    pub fn link_stats(&self) -> crate::link::LinkStats {
        self.link.stats()
    }

    /// Subscribes to a view: evaluates `expr` on the server and ships the
    /// result over the link (one round trip).
    ///
    /// # Errors
    ///
    /// Returns evaluation errors, or [`ReplicaError::LinkRefused`] when
    /// the link is down.
    pub fn subscribe(&mut self, name: &str, expr: Expr, server: &Database) -> ReplicaResult<()> {
        let mut view = MaterializedView::new(
            server.inline_views(&expr),
            server,
            server.now(),
            EvalOptions::default(),
            self.refresh,
            RemovalPolicy::Lazy,
        )?;
        view.attach_obs(&self.obs, name);
        if !self.link.round_trip(view.stored_len() as u64) {
            return Err(ReplicaError::LinkRefused {
                op: format!("subscribe `{name}`"),
            });
        }
        self.views.insert(name.to_string(), view);
        Ok(())
    }

    /// Reads a subscribed view at the server's current time.
    ///
    /// Fresh local state is served with zero communication. An expired
    /// non-monotonic view triggers one round trip (a recomputation shipped
    /// from the server) — unless the link is down, in which case the
    /// newest locally-correct state is served instead.
    ///
    /// # Errors
    ///
    /// Returns a catalog error for unknown view names; evaluation errors
    /// propagate as [`ReplicaError::Db`].
    pub fn read(
        &mut self,
        name: &str,
        server: &Database,
    ) -> ReplicaResult<(Relation, ReadOutcome)> {
        let now = server.now();
        let view = self.views.get_mut(name).ok_or_else(|| {
            ReplicaError::Db(DbError::Catalog(format!("not subscribed to `{name}`")))
        })?;

        // A fresh view reads locally and never asks `server` for rows; a
        // stale one needs the link, and says whether it used it.
        if view.fresh_at(now) || self.link.is_up() {
            let rel = view.read(server, now)?;
            if view.last_decision() != Some(RefreshDecision::Recompute) {
                return Ok((rel, ReadOutcome::Local));
            }
            self.link.round_trip(rel.len() as u64);
            return Ok((rel, ReadOutcome::Refreshed));
        }

        // Disconnected: the newest locally-correct state, if any.
        let m = view.materialized();
        Ok(match degraded(m, name, now, &self.obs) {
            Some((rel, back)) => (rel, ReadOutcome::Stale(back)),
            None => (
                Relation::new(m.rel.schema().clone()),
                ReadOutcome::Unavailable,
            ),
        })
    }

    /// Total recomputations across all views (server round trips caused by
    /// view expiry).
    #[must_use]
    pub fn total_recomputations(&self) -> u64 {
        self.views.values().map(|v| v.stats().recomputations).sum()
    }

    /// Per-view maintenance statistics.
    pub fn view_stats(&self) -> impl Iterator<Item = (&str, exptime_core::materialize::ViewStats)> {
        self.views.iter().map(|(n, v)| (n.as_str(), v.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::predicate::Predicate;
    use exptime_core::tuple;
    use exptime_engine::DbConfig;

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
    fn monotonic_view_needs_no_communication_after_subscribe() {
        let mut srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        rep.subscribe(
            "hot",
            Expr::base("pol").select(Predicate::attr_eq_const(1, 25)),
            &srv,
        )
        .unwrap();
        let after_subscribe = rep.link_stats().total_messages();
        for _ in 0..20 {
            srv.tick(1);
            let scans = srv.table("pol").unwrap().stats().scans;
            let (rel, outcome) = rep.read("hot", &srv).unwrap();
            assert_eq!(outcome, ReadOutcome::Local);
            assert_eq!(
                srv.table("pol").unwrap().stats().scans,
                scans,
                "a local read asks the server for nothing"
            );
            // The local copy matches a fresh server evaluation exactly.
            let truth = srv.execute("SELECT * FROM pol WHERE deg = 25").unwrap();
            assert!(rel.set_eq(truth.rows().unwrap()));
        }
        assert_eq!(
            rep.link_stats().total_messages(),
            after_subscribe,
            "Theorem 1: zero maintenance messages"
        );
        assert_eq!(rep.total_recomputations(), 0);
    }

    #[test]
    fn difference_view_refreshes_once_per_expiry() {
        let mut srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        let diff = Expr::base("pol")
            .project([0])
            .difference(Expr::base("el").project([0]));
        rep.subscribe("others", diff, &srv).unwrap();
        let mut refreshes = 0;
        for _ in 0..20 {
            srv.tick(1);
            let (rel, outcome) = rep.read("others", &srv).unwrap();
            if outcome == ReadOutcome::Refreshed {
                refreshes += 1;
            }
            let truth = srv
                .execute("SELECT uid FROM pol EXCEPT SELECT uid FROM el")
                .unwrap();
            assert!(rel.set_eq(truth.rows().unwrap()), "at {:?}", srv.now());
        }
        assert!(refreshes >= 1, "non-monotonic views do refresh");
        assert!(
            refreshes <= 3,
            "but only when texp(e) passes, not per read: {refreshes}"
        );
    }

    #[test]
    fn patched_difference_view_never_refreshes() {
        let mut srv = server();
        let mut rep = Replica::new(RefreshPolicy::Patch);
        let diff = Expr::base("pol")
            .project([0])
            .difference(Expr::base("el").project([0]));
        rep.subscribe("others", diff, &srv).unwrap();
        let base = rep.link_stats().total_messages();
        for _ in 0..20 {
            srv.tick(1);
            let (rel, outcome) = rep.read("others", &srv).unwrap();
            assert_eq!(outcome, ReadOutcome::Local, "Theorem 3");
            let truth = srv
                .execute("SELECT uid FROM pol EXCEPT SELECT uid FROM el")
                .unwrap();
            assert!(rel.set_eq(truth.rows().unwrap()), "at {:?}", srv.now());
        }
        assert_eq!(rep.link_stats().total_messages(), base);
    }

    #[test]
    fn disconnected_replica_serves_stale_state() {
        let mut srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        let diff = Expr::base("pol")
            .project([0])
            .difference(Expr::base("el").project([0]));
        rep.subscribe("others", diff, &srv).unwrap();
        rep.link().disconnect();
        srv.tick(5); // view invalid from 3
        let (rel, outcome) = rep.read("others", &srv).unwrap();
        match outcome {
            ReadOutcome::Stale(back) => {
                assert_eq!(back, Time::new(2), "latest valid instant before 3");
                assert_eq!(rel.len(), 1);
                assert!(rel.contains(&tuple![3]));
            }
            other => panic!("expected stale read, got {other:?}"),
        }
        assert_eq!(rep.link_stats().refused, 0, "no traffic even attempted");
        // Reconnect: the next read refreshes.
        rep.link().reconnect();
        let (_, outcome) = rep.read("others", &srv).unwrap();
        assert_eq!(outcome, ReadOutcome::Refreshed);
    }

    #[test]
    fn link_traffic_and_divergence_are_observable() {
        let mut srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        let ring = rep.obs().install_ring(64);
        let diff = Expr::base("pol")
            .project([0])
            .difference(Expr::base("el").project([0]));
        rep.subscribe("others", diff, &srv).unwrap();
        // The subscribe round trip was traced.
        let msgs: Vec<_> = ring
            .recent(64)
            .into_iter()
            .filter(|e| e.kind.tag() == "replica_message")
            .collect();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(
            &msgs[0].kind,
            exptime_obs::EventKind::ReplicaMessage { kind, tuples: 1 } if kind == "round_trip"
        ));

        rep.link().disconnect();
        srv.tick(5); // view invalid from 3; stale read moves back to 2
        let (_, outcome) = rep.read("others", &srv).unwrap();
        assert!(matches!(outcome, ReadOutcome::Stale(_)));
        let div: Vec<_> = ring
            .recent(64)
            .into_iter()
            .filter(|e| e.kind.tag() == "replica_divergence")
            .collect();
        assert_eq!(div.len(), 1);
        assert!(matches!(
            &div[0].kind,
            exptime_obs::EventKind::ReplicaDivergence { view, behind: 3 } if view == "others"
        ));
        // The replica's view metrics live in its registry.
        assert!(rep
            .obs()
            .registry()
            .counters()
            .iter()
            .any(|(name, _)| name == "view.others.reads"));
    }

    #[test]
    fn unknown_view_errors() {
        let srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        assert!(rep.read("nope", &srv).is_err());
    }

    #[test]
    fn subscribe_counts_initial_transfer() {
        let srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        rep.subscribe("all", Expr::base("pol"), &srv).unwrap();
        let s = rep.link_stats();
        assert_eq!(s.requests, 1);
        assert_eq!(s.tuples_transferred, 3);
        // Subscribe over a dead link fails.
        let mut rep2 = Replica::new(RefreshPolicy::Recompute);
        rep2.link().disconnect();
        assert!(rep2.subscribe("all", Expr::base("pol"), &srv).is_err());
    }
}
