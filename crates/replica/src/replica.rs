//! The expiration-aware replica.
//!
//! A [`Replica`] holds each subscription as a [`MaterializedView`]. Tuples
//! expire out of the local copies with no communication at all; only a
//! non-monotonic view whose expression expiration time `texp(e)` has
//! passed needs a sync — and a difference view maintained with the
//! Theorem 3 patch queue needs none, ever.
//!
//! Every sync runs the session protocol of [`crate::session`] over a
//! [`FaultyLink`], and the replica owns both endpoints of it: a refresh
//! session ships a whole evaluation, a digest session
//! ([`Replica::reconcile`]) only the tuples that diverge. Over the
//! fault-free link of [`Replica::new`] a sync is one request and one
//! response inside the read that needs it. Over a faulty link
//! ([`Replica::with_faults`]) a session retries under its [`RetryPolicy`]
//! and may land ticks later. Reads never block: until a needed sync lands,
//! a read degrades via Schrödinger semantics to the newest instant its
//! local state is known correct at.

use crate::fault::{Dir, Fate, FaultSpec, FaultyLink, LinkStats};
use crate::session::{ticks, tuple_digest, Frame, Payload, RetryPolicy, SessionStats};
use crate::{ReplicaError, ReplicaResult};
use exptime_core::algebra::{eval, EvalOptions, Expr, Materialized};
use exptime_core::catalog::Bindings;
use exptime_core::interval::IntervalSet;
use exptime_core::materialize::{MaterializedView, RefreshPolicy, RemovalPolicy, ViewStats};
use exptime_core::relation::Relation;
use exptime_core::schema::Schema;
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_engine::{Database, DbError};
use exptime_obs::{
    record_hop, trace_root, EventKind, Health, Obs, SloConfig, StalenessMonitor, TraceContext,
    Tracer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// How a replica read was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Served from the local materialisation; no communication.
    Local,
    /// A sync this read asked for completed, and the synced state was
    /// served.
    Refreshed,
    /// Sync incomplete (in flight, timed out, or link down); served the
    /// newest locally-correct state as of the returned time (Schrödinger
    /// move-backward).
    Stale(Time),
}

/// The server's schemas without its rows: what a client that authored a
/// query knows of the server. Evaluating over it reads no rows and
/// crosses no link.
struct Schemas<'a>(&'a Database);

impl Bindings for Schemas<'_> {
    fn schema(&self, name: &str) -> exptime_core::error::Result<Schema> {
        Bindings::schema(self.0, name)
    }

    fn visit(
        &self,
        name: &str,
        _: Time,
        _: &mut dyn FnMut(&Tuple, Time) -> bool,
    ) -> exptime_core::error::Result<usize> {
        Bindings::schema(self.0, name).map(|_| 0)
    }
}

/// What kind of sync a session is trying to complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionKind {
    Refresh,
    Digest,
}

#[derive(Debug)]
struct SyncSession {
    kind: SessionKind,
    seq: u64,
    started: u64,
    attempts: u32,
    next_retry: u64,
    /// The link refused the last send (explicit disconnect): the next read
    /// resends at once instead of waiting out the backoff.
    refused: bool,
    /// Root of this session's trace: every frame the session emits
    /// descends from it. [`TraceContext::NONE`] when tracing is off.
    trace: TraceContext,
}

/// One subscription: the client's view and the state of its sync.
#[derive(Debug)]
struct ViewEntry {
    view: MaterializedView,
    session: Option<SyncSession>,
    /// First tick at which this view could not be served fresh (cleared
    /// by a completed sync; feeds the `replica_resync` SLO).
    degraded_since: Option<u64>,
    /// Whether the *ongoing* degradation has already been reported as an
    /// SLO breach (one report per degradation episode, not per read).
    slo_reported: bool,
    /// Result of the last abandoned session, surfaced by `read` when the
    /// cache cannot cover the request either.
    last_timeout: Option<(u32, u64)>,
}

/// Both endpoints' protocol state and the link between them: everything
/// of a [`Replica`] but its subscriptions, so one pass over those can
/// drive it.
#[derive(Debug)]
struct Sessions {
    link: FaultyLink<Frame>,
    policy: RetryPolicy,
    refresh: RefreshPolicy,
    /// What every view evaluates with, on either end: the options
    /// [`MaterializedView::new`] makes of `refresh`.
    opts: EvalOptions,
    /// Client-side jitter RNG — deliberately decorrelated from the fault
    /// layer's stream so retry timing does not perturb the fault schedule.
    rng: StdRng,
    obs: Obs,
    monitor: StalenessMonitor,
    /// Spans for both simulated endpoints land here; `client.*` /
    /// `server.*` name prefixes tell them apart. Disabled by default.
    tracer: Tracer,
    stats: SessionStats,
    next_seq: u64,
    /// Server-side dedup: request seqs already answered, so a duplicated
    /// request is answered again (idempotently) as a retransmission.
    answered: BTreeSet<u64>,
}

/// A client holding expiration-aware materialised views.
#[derive(Debug)]
pub struct Replica {
    views: BTreeMap<String, ViewEntry>,
    sessions: Sessions,
}

impl Replica {
    /// A replica over a fault-free link.
    #[must_use]
    pub fn new(refresh: RefreshPolicy) -> Self {
        Self::build(
            FaultSpec::none(0),
            RetryPolicy::default(),
            SloConfig::default(),
            refresh,
        )
    }

    /// A recomputing replica over a link with the given fault
    /// specification.
    #[must_use]
    pub fn with_faults(spec: FaultSpec, policy: RetryPolicy) -> Self {
        Self::with_slo(spec, policy, SloConfig::default())
    }

    /// [`Replica::with_faults`] with an explicit staleness SLO.
    #[must_use]
    pub fn with_slo(spec: FaultSpec, policy: RetryPolicy, slo: SloConfig) -> Self {
        Self::build(spec, policy, slo, RefreshPolicy::Recompute)
    }

    fn build(spec: FaultSpec, policy: RetryPolicy, slo: SloConfig, refresh: RefreshPolicy) -> Self {
        let obs = Obs::new();
        let monitor = StalenessMonitor::new(&obs, slo);
        let tracer = Tracer::attached(&obs);
        let mut link = FaultyLink::new(spec);
        link.attach_obs(&obs);
        let opts = EvalOptions {
            patch_root: refresh == RefreshPolicy::Patch,
            ..EvalOptions::default()
        };
        Replica {
            views: BTreeMap::new(),
            sessions: Sessions {
                link,
                policy,
                refresh,
                opts,
                rng: StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15),
                obs,
                monitor,
                tracer,
                stats: SessionStats::default(),
                next_seq: 0,
                answered: BTreeSet::new(),
            },
        }
    }

    /// The replica's span tracer. Disabled by default; enable it to
    /// record every session as one causal trace across both endpoints
    /// (see [`Frame`]).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.sessions.tracer
    }

    /// The replica's observability handle: its views' `view.<name>.*`
    /// metrics, link traces, divergence and resync events, SLO metrics.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.sessions.obs
    }

    /// The replica's health: `Degraded` once staleness or recovery lag
    /// has breached the configured SLO.
    #[must_use]
    pub fn health(&self) -> Health {
        self.sessions.monitor.health()
    }

    /// The link (heal it, partition it, take it down, read its stats).
    pub fn link(&mut self) -> &mut FaultyLink<Frame> {
        &mut self.sessions.link
    }

    /// Wire-level traffic counters.
    #[must_use]
    pub fn link_stats(&self) -> LinkStats {
        self.sessions.link.stats()
    }

    /// Protocol-level session counters.
    #[must_use]
    pub fn session_stats(&self) -> SessionStats {
        self.sessions.stats
    }

    /// Total recomputations across all views (server round trips caused by
    /// view expiry).
    #[must_use]
    pub fn total_recomputations(&self) -> u64 {
        self.view_stats().map(|(_, s)| s.recomputations).sum()
    }

    /// Per-view maintenance statistics.
    pub fn view_stats(&self) -> impl Iterator<Item = (&str, ViewStats)> {
        self.views.iter().map(|(n, e)| (n.as_str(), e.view.stats()))
    }

    /// Subscribes to a view. The initial state transfer runs through the
    /// session protocol, so under faults the subscription may complete on
    /// a later tick — reads before then fail.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicaError::LinkRefused`] when the link is explicitly
    /// down, and evaluation errors for invalid expressions.
    pub fn subscribe(&mut self, name: &str, expr: Expr, server: &Database) -> ReplicaResult<()> {
        let now = ticks(server.now());
        let s = &self.sessions;
        let mut view = MaterializedView::new(
            server.inline_views(&expr),
            &Schemas(server),
            server.now(),
            s.opts,
            s.refresh,
            RemovalPolicy::Lazy,
        )?;
        // Until the first sync lands the view covers no instant: it is
        // never fresh, so reads fail and the first one syncs again.
        view.install(Materialized {
            rel: Relation::new(view.materialized().rel.schema().clone()),
            at: Time::ZERO,
            texp: Time::ZERO,
            validity: IntervalSet::empty(),
            patches: None,
        });
        view.attach_obs(&s.obs, name);
        let entry = ViewEntry {
            view,
            session: None,
            degraded_since: Some(now),
            slo_reported: false,
            last_timeout: None,
        };
        self.views.insert(name.to_string(), entry);
        let entry = subscribed(&mut self.views, name)?;
        if self.sessions.open(name, entry, SessionKind::Refresh, now) == Fate::Refused {
            self.views.remove(name);
            return Err(ReplicaError::LinkRefused {
                op: format!("subscribe `{name}`"),
            });
        }
        self.pump(server)
    }

    /// Drives both protocol endpoints at the server's current tick:
    /// delivers due messages, answers requests server-side, applies
    /// responses client-side, and sends due retransmissions.
    ///
    /// # Errors
    ///
    /// Propagates server-side evaluation errors.
    pub fn pump(&mut self, server: &Database) -> ReplicaResult<()> {
        let now = ticks(server.now());
        self.sessions.link.advance(now);

        // Server endpoint: answer due requests.
        for frame in self.sessions.link.recv(now, Dir::ToServer) {
            self.handle_server(frame, server)?;
        }

        // Client endpoint: apply due responses.
        for frame in self.sessions.link.recv(now, Dir::ToClient) {
            self.handle_client(frame, now);
        }

        // Retransmit / expire overdue sessions.
        let s = &mut self.sessions;
        for (name, entry) in &mut self.views {
            let Some(session) = &entry.session else {
                continue;
            };
            let waited = now.saturating_sub(session.started);
            if waited >= s.policy.budget {
                entry.last_timeout = Some((session.attempts, waited));
                entry.session = None;
                s.stats.sessions_timed_out += 1;
            } else if now >= session.next_retry {
                s.retry(name, entry, now);
            }
        }
        Ok(())
    }

    /// Server endpoint: answers a refresh or digest request with a fresh
    /// evaluation — whole, or only where it diverges from the digests.
    fn handle_server(&mut self, frame: Frame, server: &Database) -> ReplicaResult<()> {
        let now = ticks(server.now());
        let label = frame.payload.label();
        let (view, seq, digests) = match frame.payload {
            Payload::RefreshRequest { view, seq } => (view, seq, None),
            Payload::DigestRequest { view, seq, digests } => (view, seq, Some(digests)),
            // Responses never travel client → server.
            _ => return Ok(()),
        };
        let s = &mut self.sessions;
        let resent = !s.answered.insert(seq);
        let Some(entry) = self.views.get(&view) else {
            return Ok(());
        };
        // The server's span parents under the *sender's* send span — the
        // cross-endpoint stitch.
        let ctx = record_hop(&s.tracer, frame.ctx, "server.handle", label, now, resent);
        let fresh = eval(entry.view.expr(), server, server.now(), &s.opts)?;
        let resp = match digests {
            None => Payload::RefreshResponse {
                view,
                seq,
                state: fresh,
            },
            Some(digests) => {
                let theirs: BTreeSet<u64> = digests.into_iter().collect();
                let mut ours = BTreeSet::new();
                let mut add = Vec::new();
                for (t, e) in fresh.rel.iter() {
                    let digest = tuple_digest(t, e);
                    ours.insert(digest);
                    if !theirs.contains(&digest) {
                        add.push((t.clone(), e));
                    }
                }
                Payload::DigestResponse {
                    view,
                    seq,
                    add,
                    drop: theirs.difference(&ours).copied().collect(),
                    at: fresh.at,
                    texp: fresh.texp,
                    validity: fresh.validity,
                    patches: fresh.patches,
                }
            }
        };
        let (tuples, label) = (resp.tuples(), resp.label());
        let frame = Frame { ctx, payload: resp };
        s.link
            .send(now, Dir::ToClient, frame, tuples, resent, label);
        Ok(())
    }

    /// Client endpoint: installs the state that answers a view's open
    /// session and closes the session. Anything else — a duplicate, a
    /// response to a session since superseded or abandoned — is counted
    /// and dropped, which is what makes re-delivery idempotent.
    fn handle_client(&mut self, frame: Frame, now: u64) {
        let s = &mut self.sessions;
        let (view, seq, kind) = match &frame.payload {
            Payload::RefreshResponse { view, seq, .. } => (view, *seq, SessionKind::Refresh),
            Payload::DigestResponse { view, seq, .. } => (view, *seq, SessionKind::Digest),
            _ => {
                s.stats.duplicates_ignored += 1;
                return;
            }
        };
        let name = view.clone();
        let Some(entry) = self.views.get_mut(&name) else {
            return;
        };
        let session = match entry.session.take() {
            Some(open) if open.kind == kind && open.seq == seq => open,
            other => {
                entry.session = other;
                s.stats.duplicates_ignored += 1;
                return;
            }
        };
        let label = frame.payload.label();
        record_hop(&s.tracer, frame.ctx, "client.apply", label, now, false);
        let reconciled = match frame.payload {
            Payload::DigestResponse {
                add,
                drop,
                at,
                texp,
                validity,
                patches,
                ..
            } => {
                let shipped = add.len() as u64;
                let divergent = shipped + drop.len() as u64;
                // Drops first: a texp revision appears as drop(old) +
                // add(new) for the same tuple.
                let drop: BTreeSet<u64> = drop.into_iter().collect();
                let mut m = entry.view.materialized().clone();
                let stale: Vec<Tuple> = m
                    .rel
                    .iter()
                    .filter(|(t, e)| drop.contains(&tuple_digest(t, *e)))
                    .map(|(t, _)| t.clone())
                    .collect();
                for t in &stale {
                    m.rel.remove(t);
                }
                for (t, e) in add {
                    // Divergent rows replace wholesale. A schema that
                    // drifted abandons the session: the next refresh
                    // re-ships the full state.
                    m.rel.remove(&t);
                    if m.rel.insert(t, e).is_err() {
                        return;
                    }
                }
                (m.at, m.texp, m.validity, m.patches) = (at, texp, validity, patches);
                entry.view.install(m);
                Some((divergent, shipped))
            }
            Payload::RefreshResponse { state, .. } => {
                entry.view.install(state);
                None
            }
            _ => unreachable!("matched a response above"),
        };
        entry.last_timeout = None;
        entry.slo_reported = false;
        s.stats.sessions_completed += 1;
        // A session is opened by a reader or a reconciliation that has
        // already marked the view degraded, possibly ticks earlier.
        let since = entry.degraded_since.take();
        let recovery =
            now.saturating_sub(since.map_or(session.started, |d| d.min(session.started)));
        if let Some((divergent, shipped)) = reconciled {
            s.stats.reconciliations += 1;
            s.stats.divergent_tuples += divergent;
            s.obs.emit_with(Some(now), || EventKind::ReplicaResync {
                view: name.clone(),
                divergent,
                shipped,
                recovery_ticks: recovery,
                at: now,
            });
        }
        s.monitor.observe_resync(&name, recovery, now);
    }

    /// Reads a subscribed view at the server's current time.
    ///
    /// Fresh local state is served with zero communication (Theorem 2).
    /// Otherwise a sync session is opened (or continued); if it completes
    /// within this read the synced state is served, else the read degrades
    /// to the newest covered instant.
    ///
    /// # Errors
    ///
    /// Unknown views error; a view whose cache covers no instant at all
    /// returns [`ReplicaError::Timeout`] when its last sync timed out and
    /// [`ReplicaError::Divergence`] otherwise.
    pub fn read(
        &mut self,
        name: &str,
        server: &Database,
    ) -> ReplicaResult<(Relation, ReadOutcome)> {
        let now_t = server.now();
        let now = ticks(now_t);
        let entry = subscribed(&mut self.views, name)?;
        let mut outcome = ReadOutcome::Local;
        // The link refused this view's last request, and may be back: try
        // again now, not after the backoff.
        if entry.session.as_ref().is_some_and(|s| s.refused) {
            self.sessions.retry(name, entry, now);
            outcome = ReadOutcome::Refreshed;
        }
        self.pump(server)?;

        // Not fresh now and no sync under way: open one. Its response
        // may land this very tick.
        let entry = subscribed(&mut self.views, name)?;
        if entry.session.is_none() && !entry.view.fresh_at(now_t) {
            entry.degraded_since.get_or_insert(now);
            self.sessions.open(name, entry, SessionKind::Refresh, now);
            self.pump(server)?;
            outcome = ReadOutcome::Refreshed;
        }
        let entry = subscribed(&mut self.views, name)?;
        if entry.session.is_none() && entry.view.fresh_at(now_t) {
            return Ok((entry.view.read(&Schemas(server), now_t)?, outcome));
        }

        // Degrade (Schrödinger move-backward): the rows as of the newest
        // instant the local state provably covers, patch queue included,
        // reported as a divergence of that many ticks (`u64::MAX` when it
        // covers none).
        let s = &mut self.sessions;
        let answer = entry.view.materialized().answer(now_t);
        let behind = answer.as_ref().map_or(u64::MAX, |(_, back)| {
            let ticks = now_t.finite().zip(back.finite());
            ticks.map_or(0, |(n, b)| n.saturating_sub(b))
        });
        s.obs
            .emit_with(now_t.finite(), || EventKind::ReplicaDivergence {
                view: name.to_string(),
                behind,
            });
        let Some((rel, back)) = answer else {
            return Err(match entry.last_timeout {
                Some((attempts, waited)) => ReplicaError::Timeout {
                    op: format!("sync `{name}`"),
                    attempts,
                    waited,
                },
                None => ReplicaError::Divergence {
                    view: name.to_string(),
                    behind: u64::MAX,
                },
            });
        };
        // An ongoing degradation episode past the SLO is reported once:
        // the replica is divergence-exposed *right now*, without waiting
        // for the eventual repair to record it.
        if let Some(since) = entry.degraded_since {
            let lag = now.saturating_sub(since);
            if lag > s.monitor.config().max_resync_lag && !entry.slo_reported {
                entry.slo_reported = true;
                s.monitor.observe_resync(name, lag, now);
            }
        }
        Ok((rel, ReadOutcome::Stale(back)))
    }

    /// Anti-entropy pass: opens a digest session for every subscribed
    /// view. Call after the link heals (or any suspected divergence);
    /// only divergent tuples will be shipped.
    ///
    /// # Errors
    ///
    /// Propagates server-side evaluation errors from the pump.
    pub fn reconcile(&mut self, server: &Database) -> ReplicaResult<()> {
        let now = ticks(server.now());
        for (name, entry) in &mut self.views {
            if entry.session.is_some() {
                continue; // a sync is already in flight
            }
            entry.degraded_since.get_or_insert(now);
            self.sessions.open(name, entry, SessionKind::Digest, now);
        }
        self.pump(server)
    }

    /// Whether every view is synced (no open sessions, nothing in
    /// flight). The chaos tests drive `pump` until this holds after
    /// healing the link.
    #[must_use]
    pub fn quiesced(&self) -> bool {
        self.sessions.link.in_flight() == 0 && self.views.values().all(|v| v.session.is_none())
    }
}

impl Sessions {
    /// Opens a session for `name` and transmits its first request.
    fn open(&mut self, name: &str, entry: &mut ViewEntry, kind: SessionKind, now: u64) -> Fate {
        let seq = self.next_seq;
        self.next_seq += 1;
        let first_delay = self.policy.delay(0, &mut self.rng);
        let root = match kind {
            SessionKind::Refresh => "session.refresh",
            SessionKind::Digest => "session.digest",
        };
        entry.session = Some(SyncSession {
            kind,
            seq,
            started: now,
            attempts: 1,
            next_retry: now + first_delay,
            refused: false,
            trace: trace_root(&self.tracer, root, seq, now, Some(name)),
        });
        self.stats.sessions_started += 1;
        self.send_request(name, entry, now, false)
    }

    /// Retransmits the request of `entry`'s open session and schedules
    /// the next retry after the backoff.
    fn retry(&mut self, name: &str, entry: &mut ViewEntry, now: u64) {
        if let Some(s) = &mut entry.session {
            s.next_retry = now + self.policy.delay(s.attempts, &mut self.rng);
            s.attempts += 1;
        }
        self.send_request(name, entry, now, true);
        self.stats.retries += 1;
    }

    /// Transmits the request of `entry`'s open session: its first send and
    /// every retransmission. A retransmission is a fresh hop under the same
    /// session root — the trace shows each attempt, not just the one that
    /// landed — and a digest request is rebuilt from the cache as it is
    /// now.
    fn send_request(&mut self, name: &str, entry: &mut ViewEntry, now: u64, resent: bool) -> Fate {
        let Some(s) = &mut entry.session else {
            return Fate::Refused;
        };
        let (view, seq) = (name.to_string(), s.seq);
        let req = match s.kind {
            SessionKind::Refresh => Payload::RefreshRequest { view, seq },
            SessionKind::Digest => {
                let rows = entry.view.materialized().rel.iter();
                let digests = rows.map(|(t, e)| tuple_digest(t, e)).collect();
                Payload::DigestRequest { view, seq, digests }
            }
        };
        let label = req.label();
        let ctx = record_hop(&self.tracer, s.trace, "client.send", label, now, resent);
        let frame = Frame { ctx, payload: req };
        let fate = self.link.send(now, Dir::ToServer, frame, 0, resent, label);
        s.refused = fate == Fate::Refused;
        fate
    }
}

fn subscribed<'a>(
    views: &'a mut BTreeMap<String, ViewEntry>,
    name: &str,
) -> ReplicaResult<&'a mut ViewEntry> {
    views
        .get_mut(name)
        .ok_or_else(|| ReplicaError::Db(DbError::Catalog(format!("not subscribed to `{name}`"))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::aggregate::AggFunc;
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

    fn diff_expr() -> Expr {
        Expr::base("pol")
            .project([0])
            .difference(Expr::base("el").project([0]))
    }

    fn diff_truth(srv: &mut Database) -> Relation {
        let truth = srv
            .execute("SELECT uid FROM pol EXCEPT SELECT uid FROM el")
            .unwrap();
        truth.rows().unwrap().clone()
    }

    #[test]
    fn monotonic_view_needs_no_messages_after_subscribe_even_under_chaos() {
        for chaos in [false, true] {
            let mut srv = server();
            let mut rep = if chaos {
                Replica::with_faults(FaultSpec::chaos(7), RetryPolicy::default())
            } else {
                Replica::new(RefreshPolicy::Recompute)
            };
            rep.subscribe(
                "hot",
                Expr::base("pol").select(Predicate::attr_eq_const(1, 25)),
                &srv,
            )
            .unwrap();
            // Complete the (possibly fault-delayed) subscription first.
            for _ in 0..40 {
                if rep.quiesced() {
                    break;
                }
                srv.tick(1);
                rep.pump(&srv).unwrap();
            }
            assert!(rep.quiesced(), "{}", rep.link().schedule_report());
            let base = rep.link_stats().attempted_messages();
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
                rep.link_stats().attempted_messages(),
                base,
                "Theorem 1, chaos={chaos}: zero maintenance traffic"
            );
            assert_eq!(rep.total_recomputations(), 0);
        }
    }

    #[test]
    fn difference_view_refreshes_once_per_expiry() {
        let mut srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        let mut refreshes = 0;
        for _ in 0..20 {
            srv.tick(1);
            let (rel, outcome) = rep.read("others", &srv).unwrap();
            if outcome == ReadOutcome::Refreshed {
                refreshes += 1;
            }
            assert!(rel.set_eq(&diff_truth(&mut srv)), "at {:?}", srv.now());
        }
        assert!(refreshes >= 1, "non-monotonic views do refresh");
        assert!(
            refreshes <= 3,
            "but only when texp(e) passes, not per read: {refreshes}"
        );
        // Each refresh is one request and one response, and the view
        // counts it as its recomputation.
        let s = rep.link_stats();
        assert_eq!(s.total_messages(), 2 + 2 * refreshes);
        assert_eq!(rep.total_recomputations(), refreshes);
        // No faults → no retries, no timeouts, no duplicates.
        let s = rep.session_stats();
        assert_eq!(s.retries, 0);
        assert_eq!(s.sessions_timed_out, 0);
        assert_eq!(s.duplicates_ignored, 0);
        assert_eq!(rep.link_stats().retransmissions, 0);
    }

    #[test]
    fn patched_difference_view_never_refreshes() {
        let mut srv = server();
        let mut rep = Replica::new(RefreshPolicy::Patch);
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        let base = rep.link_stats().total_messages();
        for _ in 0..20 {
            srv.tick(1);
            let (rel, outcome) = rep.read("others", &srv).unwrap();
            assert_eq!(outcome, ReadOutcome::Local, "Theorem 3");
            assert!(rel.set_eq(&diff_truth(&mut srv)), "at {:?}", srv.now());
        }
        assert_eq!(rep.link_stats().total_messages(), base);
        let (_, stats) = rep.view_stats().next().unwrap();
        assert!(stats.patches_applied > 0, "the server shipped the queue");
    }

    /// A digest sync installs the server's `texp(e)`, which a patched
    /// root owes to its queue, so it ships the queue too: without it the
    /// difference would never bring back ⟨2⟩, whose `el` copy expires at
    /// 3, and the count would keep ⟨2, 25, 2⟩ past 10, when ⟨1, 25⟩ goes.
    #[test]
    fn a_digest_sync_ships_the_patch_queue() {
        let count = Expr::base("pol").aggregate([1], AggFunc::Count);
        for expr in [diff_expr(), count] {
            let mut srv = server();
            let mut rep = Replica::new(RefreshPolicy::Patch);
            rep.subscribe("v", expr.clone(), &srv).unwrap();
            rep.reconcile(&srv).unwrap();
            assert!(rep.quiesced());
            assert_eq!(rep.session_stats().reconciliations, 1);
            let base = rep.link_stats().total_messages();
            for _ in 0..20 {
                srv.tick(1);
                let (rel, outcome) = rep.read("v", &srv).unwrap();
                assert_eq!(outcome, ReadOutcome::Local, "{expr}: Theorem 3");
                let truth = eval(&expr, &srv, srv.now(), &EvalOptions::default()).unwrap();
                assert!(
                    rel.set_eq(&truth.rel),
                    "{expr} at {:?}:\n{rel:?}\nvs {:?}",
                    srv.now(),
                    truth.rel
                );
            }
            assert_eq!(rep.link_stats().total_messages(), base, "{expr}");
        }
    }

    #[test]
    fn disconnected_replica_serves_stale_state() {
        let mut srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        rep.link().disconnect();
        let crossed = rep.link_stats().total_messages();
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
        assert_eq!(
            rep.link_stats().total_messages(),
            crossed,
            "nothing crossed the dead link"
        );
        // Reconnect: the next read refreshes.
        rep.link().reconnect();
        let (_, outcome) = rep.read("others", &srv).unwrap();
        assert_eq!(outcome, ReadOutcome::Refreshed);
    }

    #[test]
    fn timed_out_session_degrades_to_stale_cache() {
        let mut srv = server();
        let policy = RetryPolicy {
            budget: 4,
            ..RetryPolicy::default()
        };
        let mut rep = Replica::with_faults(FaultSpec::none(1), policy);
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        // Cache is synced at t=0; partition the link manually, then let
        // the view expire (texp = 3).
        rep.link().disconnect();
        srv.tick(5);
        let (rel, outcome) = rep.read("others", &srv).unwrap();
        match outcome {
            ReadOutcome::Stale(back) => {
                assert_eq!(back, Time::new(2), "newest covered instant before texp=3");
                assert_eq!(rel.len(), 1);
            }
            other => panic!("expected stale degradation, got {other:?}"),
        }
        // The session keeps failing; once the budget lapses it times out
        // but reads still degrade instead of erroring.
        for _ in 0..6 {
            srv.tick(1);
            let (_, outcome) = rep.read("others", &srv).unwrap();
            assert!(matches!(outcome, ReadOutcome::Stale(_)));
        }
        assert!(rep.session_stats().sessions_timed_out >= 1);
    }

    #[test]
    fn lossy_link_retries_until_synced() {
        let mut srv = server();
        let mut rep = Replica::with_faults(FaultSpec::lossy(3, 0.6), RetryPolicy::default());
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        for _ in 0..150 {
            srv.tick(1);
            let _ = rep.read("others", &srv); // degraded reads are fine mid-chaos
        }
        // Reconnect-and-quiesce: no new faults, in-flight still delivers.
        rep.link().heal();
        for _ in 0..5 {
            srv.tick(1);
            let _ = rep.read("others", &srv);
        }
        let (rel, _) = rep.read("others", &srv).unwrap();
        assert!(
            rel.set_eq(&diff_truth(&mut srv)),
            "converged despite 60% loss\n{}",
            rep.link().schedule_report()
        );
        assert!(rep.session_stats().retries > 0, "loss forced retries");
        assert!(rep.link_stats().retransmissions > 0);
    }

    #[test]
    fn duplicated_responses_are_idempotent() {
        let mut srv = server();
        let spec = FaultSpec {
            duplicate: 1.0,
            ..FaultSpec::none(5)
        };
        let mut rep = Replica::with_faults(spec, RetryPolicy::default());
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        for _ in 0..20 {
            srv.tick(1);
            let (rel, _) = rep.read("others", &srv).unwrap();
            assert!(rel.set_eq(&diff_truth(&mut srv)), "at {:?}", srv.now());
        }
        assert!(
            rep.session_stats().duplicates_ignored > 0,
            "every message was duplicated; the copies must be discarded"
        );
    }

    #[test]
    fn reconcile_ships_only_divergent_tuples() {
        let mut srv = server();
        let mut rep = Replica::with_faults(FaultSpec::none(1), RetryPolicy::default());
        rep.subscribe("all", Expr::base("pol"), &srv).unwrap();
        let ring = rep.obs().install_ring(64);
        // Mutate the server while the replica is partitioned.
        rep.link().disconnect();
        srv.execute("INSERT INTO pol VALUES (9, 99) EXPIRES AT 50")
            .unwrap();
        srv.tick(1);
        rep.link().reconnect();
        let before = rep.link_stats().tuples_transferred;
        rep.reconcile(&srv).unwrap();
        assert!(rep.quiesced());
        let (rel, outcome) = rep.read("all", &srv).unwrap();
        assert_eq!(outcome, ReadOutcome::Local);
        let truth = srv.execute("SELECT * FROM pol").unwrap();
        assert!(rel.set_eq(truth.rows().unwrap()));
        // Only the one new tuple crossed the link, not the whole result.
        assert_eq!(rep.link_stats().tuples_transferred - before, 1);
        let resyncs: Vec<_> = ring
            .recent(64)
            .into_iter()
            .filter(|e| e.kind.tag() == "replica_resync")
            .collect();
        assert_eq!(resyncs.len(), 1);
        assert!(matches!(
            &resyncs[0].kind,
            EventKind::ReplicaResync { shipped: 1, .. }
        ));
        assert_eq!(rep.session_stats().reconciliations, 1);
    }

    #[test]
    fn link_traffic_and_divergence_are_observable() {
        let mut srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        let ring = rep.obs().install_ring(64);
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        // The subscribe request and its response were traced.
        let msgs: Vec<_> = ring
            .recent(64)
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::ReplicaMessage { kind, tuples } => Some((kind, tuples)),
                _ => None,
            })
            .collect();
        assert_eq!(
            msgs,
            [("request".to_string(), 0), ("response".to_string(), 1)]
        );

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
            EventKind::ReplicaDivergence { view, behind: 3 } if view == "others"
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
    fn disconnected_replica_health_reports_staleness_after_texp() {
        let mut srv = server();
        let slo = SloConfig {
            max_resync_lag: 2,
            ..SloConfig::default()
        };
        let mut rep = Replica::with_slo(FaultSpec::none(1), RetryPolicy::default(), slo);
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        rep.link().disconnect();
        // While texp (= 3) has not passed, reads are local and healthy.
        srv.tick(2);
        let (_, outcome) = rep.read("others", &srv).unwrap();
        assert_eq!(outcome, ReadOutcome::Local);
        assert!(rep.health().to_string().contains("status: ok"));
        // Once texp lapses the replica serves stale state and health
        // degrades after the staleness SLO (2 ticks) is breached.
        srv.tick(3);
        for _ in 0..4 {
            srv.tick(1);
            let (_, outcome) = rep.read("others", &srv).unwrap();
            assert!(matches!(outcome, ReadOutcome::Stale(_)));
        }
        assert!(
            rep.health().to_string().contains("status: degraded"),
            "{}",
            rep.health()
        );
    }

    #[test]
    fn traced_session_forms_one_causal_chain_across_endpoints() {
        let srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        rep.tracer().enable();
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        let spans = rep.tracer().recent(64);
        let find = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing span `{name}`"))
        };
        let root = find("session.refresh");
        let send = find("client.send.refresh_req");
        let handle = find("server.handle.refresh_req");
        let apply = find("client.apply.refresh_resp");
        // Each hop parents under the previous one — send → handle →
        // apply is one chain even though the middle span belongs to the
        // other endpoint.
        assert_eq!(send.parent, Some(root.id));
        assert_eq!(handle.parent, Some(send.id));
        assert_eq!(apply.parent, Some(handle.id));
        // Every hop carries the same trace id and no hop was a retry.
        let root_trace = root
            .attrs
            .iter()
            .find(|(k, _)| k == "trace")
            .map(|(_, v)| v.clone())
            .unwrap();
        for s in [send, handle, apply] {
            assert!(s
                .attrs
                .iter()
                .any(|(k, v)| k == "trace" && v == &root_trace));
            assert!(s
                .attrs
                .iter()
                .any(|(k, v)| k == "retransmission" && v == "false"));
        }
    }

    #[test]
    fn disabled_tracer_sends_unsampled_frames_and_records_nothing() {
        let mut srv = server();
        let mut rep = Replica::new(RefreshPolicy::Recompute);
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        srv.tick(5);
        let _ = rep.read("others", &srv);
        assert!(rep.tracer().recent(64).is_empty());
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
        assert_eq!((s.requests, s.responses), (1, 1));
        assert_eq!(s.tuples_transferred, 3);
        assert_eq!(
            rep.total_recomputations(),
            0,
            "a subscription is no refresh"
        );
        // Subscribe over a dead link fails.
        let mut rep2 = Replica::new(RefreshPolicy::Recompute);
        rep2.link().disconnect();
        assert!(rep2.subscribe("all", Expr::base("pol"), &srv).is_err());
    }
}
