//! Baseline maintenance strategies without expiration awareness.
//!
//! These are the comparison points for experiments E6 and E6-chaos —
//! what a loosely-coupled system must do when the client's cached query
//! result cannot expire tuples on its own:
//!
//! * [`DeletePushReplica`] — the server tracks the client's cached result
//!   and pushes a notice for every tuple that leaves (or, for
//!   non-monotonic views, enters) it. This is the paper's "an
//!   administrator or user would issue an explicit delete statement"
//!   world, mechanised: message cost Θ(result changes).
//! * [`PollingReplica`] — the client re-fetches the whole result on every
//!   read: message cost Θ(reads), payload Θ(reads × result size).
//! * [`ChaosDeletePush`] — delete-push hardened for a faulty link:
//!   sequence-numbered notices, cumulative acks, and retransmission of
//!   the unacknowledged suffix, which every lost notice costs again.
//!
//! All three count their traffic on the replica's own
//! [`FaultyLink`], so their message counts compare directly with
//! [`exptime_replica::Replica`]'s. The two delete-pushes stay separate:
//! the loss-free one pushes without acks, the message count E6 reports.

use exptime_core::algebra::{eval, EvalOptions, Expr};
use exptime_core::relation::Relation;
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_engine::Database;
use exptime_obs::{record_hop, trace_root, Obs, TraceContext, Tracer};
use exptime_replica::{
    Dir, FaultSpec, FaultyLink, LinkStats, ReplicaResult, RetryPolicy, SessionStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// One change to a cached result (delete-push notices).
#[derive(Debug, Clone)]
pub enum Change {
    /// The tuple entered the result with the given expiration time.
    Add(Tuple, Time),
    /// The tuple left the result.
    Remove(Tuple),
}

impl Change {
    /// Applies the change to a cached result.
    fn apply(self, cache: &mut Relation) -> ReplicaResult<()> {
        match self {
            Change::Add(t, e) => {
                cache.remove(&t);
                cache.insert(t, e)?;
            }
            Change::Remove(t) => {
                cache.remove(&t);
            }
        }
        Ok(())
    }

    /// What a delete-push server must send so that a client holding
    /// `cached` holds `fresh`: a `Remove` per tuple that left the result,
    /// then an `Add` per tuple that entered it. `cached` — the server's
    /// record of what the client has been sent — is brought up to date
    /// on the way out.
    fn diff(cached: &mut Relation, fresh: &Relation) -> ReplicaResult<Vec<Change>> {
        let left = cached.iter().filter(|(t, _)| !fresh.contains(t));
        let entered = fresh.iter().filter(|(t, _)| !cached.contains(t));
        let changes: Vec<Change> = left
            .map(|(t, _)| Change::Remove(t.clone()))
            .chain(entered.map(|(t, e)| Change::Add(t.clone(), e)))
            .collect();
        for change in &changes {
            change.clone().apply(cached)?;
        }
        Ok(changes)
    }
}

/// A fault-free link for the count-only strawmen: they call
/// [`FaultyLink::round_trip`] and [`FaultyLink::push`], which no fault
/// reaches.
fn counting_link() -> FaultyLink<()> {
    FaultyLink::new(FaultSpec::none(0))
}

/// A cache kept consistent by server-pushed change notices.
#[derive(Debug)]
pub struct DeletePushReplica {
    expr: Expr,
    cache: Relation,
    link: FaultyLink<()>,
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
        let mut link = counting_link();
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
    /// as [`exptime_replica::ReplicaError::Db`] instead of panicking.
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
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }
}

/// A client that re-fetches the full result on every read.
#[derive(Debug)]
pub struct PollingReplica {
    expr: Expr,
    link: FaultyLink<()>,
}

impl PollingReplica {
    /// Creates the poller (no initial transfer; the first read fetches).
    #[must_use]
    pub fn new(expr: Expr, server: &Database) -> Self {
        PollingReplica {
            expr: server.inline_views(&expr),
            link: counting_link(),
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
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }
}

/// The messages of the hardened delete-push.
#[derive(Debug, Clone)]
pub enum PushMessage {
    /// Server → client: one change notice.
    Notice {
        /// Notice sequence number (dense, per subscription).
        seq: u64,
        /// The change to apply.
        change: Change,
        /// The trace position of the send that carried it.
        ctx: TraceContext,
    },
    /// Client → server: cumulative acknowledgement of notices `..= upto`.
    /// Acks carry no trace context.
    Ack {
        /// Highest notice sequence number applied in order.
        upto: u64,
    },
}

/// The explicit-delete baseline, chaos-hardened: sequence-numbered
/// notices, cumulative acks, and retransmission of the unacknowledged
/// suffix. This is what a system without expiration times must build to
/// survive the same faults — and every lost notice costs another
/// round of retransmissions, which experiment E6-chaos quantifies.
#[derive(Debug)]
pub struct ChaosDeletePush {
    expr: Expr,
    /// Server's intended client state: all enqueued notices applied.
    shadow: Relation,
    /// Client's actual cache.
    cache: Relation,
    link: FaultyLink<PushMessage>,
    policy: RetryPolicy,
    rng: StdRng,
    /// Spans for both simulated endpoints; one trace per notice.
    tracer: Tracer,
    /// Unacknowledged notices, by sequence number:
    /// `(change, next_send, attempts, trace)`.
    outbox: BTreeMap<u64, (Change, u64, u32, TraceContext)>,
    next_seq: u64,
    /// Client: next notice sequence number to apply.
    next_expected: u64,
    /// Client: out-of-order notices held until their turn.
    buffered: BTreeMap<u64, Change>,
    stats: SessionStats,
}

impl ChaosDeletePush {
    /// Subscribes: the initial state ships out-of-band (one reliable
    /// round trip, counted), then all maintenance flows through the
    /// faulty link.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn subscribe(
        expr: Expr,
        server: &Database,
        spec: FaultSpec,
        policy: RetryPolicy,
    ) -> ReplicaResult<Self> {
        let expr = server.inline_views(&expr);
        let m = eval(&expr, server, server.now(), &EvalOptions::default())?;
        let obs = Obs::new();
        let mut link = FaultyLink::new(spec);
        link.attach_obs(&obs);
        link.round_trip(m.rel.len() as u64);
        Ok(ChaosDeletePush {
            expr,
            shadow: m.rel.clone(),
            cache: m.rel,
            link,
            policy,
            rng: StdRng::seed_from_u64(spec.seed ^ 0x5851_f42d_4c95_7f2d),
            tracer: Tracer::attached(&obs),
            outbox: BTreeMap::new(),
            next_seq: 0,
            next_expected: 0,
            buffered: BTreeMap::new(),
            stats: SessionStats::default(),
        })
    }

    /// The fault-injected link.
    pub fn link(&mut self) -> &mut FaultyLink<PushMessage> {
        &mut self.link
    }

    /// The baseline's span tracer (disabled by default).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Wire-level traffic counters.
    #[must_use]
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// Protocol-level session counters.
    #[must_use]
    pub fn session_stats(&self) -> SessionStats {
        self.stats
    }

    /// One maintenance round at the server's current tick: process acks,
    /// detect changes, (re)transmit unacknowledged notices, and run the
    /// client side (apply in order, ack cumulatively).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; schema errors on apply surface as
    /// [`exptime_replica::ReplicaError::Db`].
    pub fn server_sync(&mut self, server: &Database) -> ReplicaResult<()> {
        let now = server.now().finite().unwrap_or(u64::MAX - 1);
        self.link.advance(now);

        // 1. Server: consume cumulative acks.
        for msg in self.link.recv(now, Dir::ToServer) {
            if let PushMessage::Ack { upto } = msg {
                let acked: Vec<u64> = self.outbox.range(..=upto).map(|(s, _)| *s).collect();
                for s in acked {
                    self.outbox.remove(&s);
                }
            }
        }

        // 2. Server: diff fresh result against the shadow (the state the
        //    client will hold once every sent notice lands).
        let fresh = eval(&self.expr, server, server.now(), &EvalOptions::default())?.rel;
        for change in Change::diff(&mut self.shadow, &fresh)? {
            self.enqueue(change, now);
        }

        // 3. Server: transmit whatever is due (first sends and retries).
        let due: Vec<u64> = self
            .outbox
            .iter()
            .filter(|(_, (_, next_send, _, _))| *next_send <= now)
            .map(|(s, _)| *s)
            .collect();
        for seq in due {
            let (change, _, attempts, trace) = self.outbox.get(&seq).unwrap().clone();
            let retransmission = attempts > 0;
            if retransmission {
                self.stats.retries += 1;
            }
            // Retransmissions are fresh hops under the same notice root.
            let ctx = record_hop(
                &self.tracer,
                trace,
                "server.send",
                "notice",
                now,
                retransmission,
            );
            let msg = PushMessage::Notice { seq, change, ctx };
            self.link
                .send(now, Dir::ToClient, msg, 1, retransmission, "notice");
            let backoff = self.policy.delay(attempts, &mut self.rng);
            if let Some(entry) = self.outbox.get_mut(&seq) {
                entry.1 = now + backoff;
                entry.2 = attempts + 1;
            }
        }

        // 4. Client: receive, order, apply, ack.
        self.client_pump(now)
    }

    fn enqueue(&mut self, change: Change, now: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let trace = trace_root(&self.tracer, "push.notice", seq, now, None);
        self.outbox.insert(seq, (change, now, 0, trace));
    }

    fn client_pump(&mut self, now: u64) -> ReplicaResult<()> {
        let mut received_any = false;
        for msg in self.link.recv(now, Dir::ToClient) {
            if let PushMessage::Notice { seq, change, ctx } = msg {
                received_any = true;
                if seq < self.next_expected || self.buffered.contains_key(&seq) {
                    // Idempotent re-delivery: already applied or already
                    // queued. The re-ack below repairs a lost ack.
                    self.stats.duplicates_ignored += 1;
                    continue;
                }
                record_hop(&self.tracer, ctx, "client.recv", "notice", now, false);
                if seq > self.next_expected {
                    self.stats.reorders_buffered += 1;
                }
                self.buffered.insert(seq, change);
            }
        }
        // Apply the in-order prefix.
        while let Some(change) = self.buffered.remove(&self.next_expected) {
            change.apply(&mut self.cache)?;
            self.next_expected += 1;
        }
        // Cumulative ack (also re-sent on duplicates, repairing ack loss).
        if received_any && self.next_expected > 0 {
            let ack = PushMessage::Ack {
                upto: self.next_expected - 1,
            };
            self.link.send(now, Dir::ToServer, ack, 0, false, "ack");
        }
        Ok(())
    }

    /// The client cache.
    #[must_use]
    pub fn read(&self) -> &Relation {
        &self.cache
    }

    /// Whether server and client have converged: no unacknowledged
    /// notices, nothing in flight, nothing buffered out of order.
    #[must_use]
    pub fn quiesced(&self) -> bool {
        self.outbox.is_empty() && self.link.in_flight() == 0 && self.buffered.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::materialize::RefreshPolicy;
    use exptime_core::predicate::Predicate;
    use exptime_engine::DbConfig;
    use exptime_replica::Replica;

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

    #[test]
    fn delete_push_converges_under_loss_with_acks() {
        let mut srv = server();
        let mut push = ChaosDeletePush::subscribe(
            Expr::base("pol"),
            &srv,
            FaultSpec::lossy(11, 0.5),
            RetryPolicy::default(),
        )
        .unwrap();
        for _ in 0..120 {
            srv.tick(1);
            push.server_sync(&srv).unwrap();
        }
        // Drain retransmissions after the last change.
        let truth = srv.execute("SELECT * FROM pol").unwrap();
        assert!(
            push.read().tuples_eq_at(truth.rows().unwrap(), srv.now()),
            "cache converged\n{}",
            push.link().schedule_report()
        );
        assert!(push.quiesced(), "outbox drained: every notice acked");
        assert!(push.link_stats().retransmissions > 0, "loss forced retries");
        assert!(push.session_stats().retries > 0);
    }

    #[test]
    fn delete_push_applies_reordered_notices_in_order() {
        let mut srv = server();
        let spec = FaultSpec {
            delay: 0.6,
            delay_max: 4,
            duplicate: 0.3,
            ..FaultSpec::none(13)
        };
        let mut push =
            ChaosDeletePush::subscribe(Expr::base("pol"), &srv, spec, RetryPolicy::default())
                .unwrap();
        for _ in 0..60 {
            srv.tick(1);
            push.server_sync(&srv).unwrap();
        }
        let truth = srv.execute("SELECT * FROM pol").unwrap();
        assert!(
            push.read().tuples_eq_at(truth.rows().unwrap(), srv.now()),
            "{}",
            push.link().schedule_report()
        );
        assert!(push.quiesced());
    }

    #[test]
    fn delete_push_traces_notice_retransmissions() {
        let mut srv = server();
        let mut push = ChaosDeletePush::subscribe(
            Expr::base("pol"),
            &srv,
            FaultSpec::lossy(11, 0.5),
            RetryPolicy::default(),
        )
        .unwrap();
        push.tracer().enable();
        for _ in 0..120 {
            srv.tick(1);
            push.server_sync(&srv).unwrap();
        }
        let spans = push.tracer().recent(1024);
        let roots: Vec<_> = spans.iter().filter(|s| s.name == "push.notice").collect();
        assert!(!roots.is_empty());
        let resent = spans
            .iter()
            .find(|s| {
                s.name == "server.send.notice"
                    && s.attrs
                        .iter()
                        .any(|(k, v)| k == "retransmission" && v == "true")
            })
            .expect("50% loss must force a traced retransmission");
        // The retry hangs off a notice root: the trace shows the loss.
        assert!(roots.iter().any(|r| Some(r.id) == resent.parent));
        assert!(spans.iter().any(|s| s.name == "client.recv.notice"));
    }
}
