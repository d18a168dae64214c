//! Session protocol for replica sync over a [`FaultyLink`].
//!
//! Under the fault model of [`crate::fault`] a request and its response
//! have independent fates, so sync runs the classic reliability machinery:
//!
//! * **sequence numbers** on every request/response/notice, so the
//!   receiver can detect duplicates and order re-deliveries;
//! * **cumulative acks** (delete-push) so the server retransmits exactly
//!   the unacknowledged suffix;
//! * **idempotent application** — a duplicated or reordered message is
//!   either buffered until its turn or discarded, never applied twice;
//! * **retry with exponential backoff + jitter** under a bounded tick
//!   budget ([`RetryPolicy`]), after which the client *degrades* to the
//!   still-locally-correct cached view (Schrödinger move-backward)
//!   instead of erroring;
//! * **anti-entropy reconciliation** on reconnect: the client ships one
//!   digest per cached tuple, the server answers with only the divergent
//!   tuples — repair cost Θ(divergence), not Θ(result).
//!
//! This module holds the messages ([`Payload`] in a traced [`Frame`]),
//! the retry discipline and the digests. Two endpoints speak it: the
//! expiration-aware [`crate::replica::Replica`] (the paper's protagonist)
//! and [`ChaosDeletePush`] (the explicit-delete baseline, which must push
//! every change and therefore suffers far more under loss). Both are
//! driven tick-synchronously against a server [`Database`]; the chaos
//! property tests assert that after [`FaultyLink::heal`] + quiesce both
//! converge back to the server's truth for *every* seeded fault schedule.

use crate::fault::{Dir, FaultSpec, FaultyLink};
use crate::link::LinkStats;
use crate::ReplicaResult;
use exptime_core::algebra::{eval, EvalOptions, Expr, Materialized};
use exptime_core::interval::IntervalSet;
use exptime_core::relation::Relation;
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_engine::Database;
use exptime_obs::{Obs, TraceContext, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Exponential backoff with jitter under a bounded total budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Ticks before the first retry.
    pub base: u64,
    /// Backoff multiplier per attempt.
    pub factor: u64,
    /// Ceiling on the backoff interval.
    pub max_interval: u64,
    /// Uniform jitter in `0..=jitter` added to every interval (decorrelates
    /// clients that failed together).
    pub jitter: u64,
    /// Total ticks a session may run before giving up with
    /// [`crate::ReplicaError::Timeout`].
    pub budget: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: 1,
            factor: 2,
            max_interval: 8,
            jitter: 1,
            budget: 64,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based), jittered.
    /// Public because the wire-protocol client (`exptime-net`) schedules
    /// its reconnect/retry backoff with the same policy — one retry
    /// discipline across the replica and network layers.
    #[must_use]
    pub fn delay(&self, attempt: u32, rng: &mut StdRng) -> u64 {
        let mut d = self.base.max(1);
        for _ in 0..attempt.min(16) {
            d = d.saturating_mul(self.factor.max(1));
            if d >= self.max_interval {
                d = self.max_interval.max(1);
                break;
            }
        }
        let d = d.min(self.max_interval.max(1));
        if self.jitter > 0 {
            d + rng.gen_range(0..=self.jitter)
        } else {
            d
        }
    }
}

/// Counters for the session machinery itself (the link's [`LinkStats`]
/// count wire crossings; these count protocol outcomes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sync sessions opened (refresh or digest).
    pub sessions_started: u64,
    /// Sessions that completed with an applied response.
    pub sessions_completed: u64,
    /// Sessions abandoned after the retry budget ran out.
    pub sessions_timed_out: u64,
    /// Request retransmissions sent.
    pub retries: u64,
    /// Duplicate or stale messages discarded on receipt (idempotence).
    pub duplicates_ignored: u64,
    /// Out-of-order notices buffered until their turn (delete-push).
    pub reorders_buffered: u64,
    /// Anti-entropy reconciliations completed.
    pub reconciliations: u64,
    /// Tuples the digest exchanges found divergent (shipped + dropped).
    pub divergent_tuples: u64,
}

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
    pub(crate) fn apply(self, cache: &mut Relation) -> ReplicaResult<()> {
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
    pub(crate) fn diff(cached: &mut Relation, fresh: &Relation) -> ReplicaResult<Vec<Change>> {
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

/// Messages of the session protocol. One enum for both endpoints: the
/// fault layer is generic and does not care.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Client → server: "re-evaluate `view` and send me the result".
    RefreshRequest {
        /// Subscribed view name.
        view: String,
        /// Session sequence number; the response echoes it.
        seq: u64,
    },
    /// Server → client: the full re-evaluated materialisation.
    RefreshResponse {
        /// Subscribed view name.
        view: String,
        /// Echo of the request's sequence number.
        seq: u64,
        /// The freshly materialised state (rows + `texp` + validity —
        /// "results carry expiration times").
        state: Materialized,
    },
    /// Client → server: anti-entropy probe — one digest per cached tuple.
    DigestRequest {
        /// Subscribed view name.
        view: String,
        /// Session sequence number.
        seq: u64,
        /// [`tuple_digest`] of every cached `(tuple, texp)` row.
        digests: Vec<u64>,
    },
    /// Server → client: only the divergent part of the result.
    DigestResponse {
        /// Subscribed view name.
        view: String,
        /// Echo of the request's sequence number.
        seq: u64,
        /// Rows present on the server but missing (or stale) locally.
        add: Vec<(Tuple, Time)>,
        /// Digests of local rows that must be dropped.
        drop: Vec<u64>,
        /// Server materialisation time.
        at: Time,
        /// Server `texp(e)` for the refreshed state.
        texp: Time,
        /// Server validity intervals for the refreshed state.
        validity: IntervalSet,
    },
    /// Server → client: one delete-push change notice.
    Notice {
        /// Notice sequence number (dense, per subscription).
        seq: u64,
        /// The change to apply.
        change: Change,
    },
    /// Client → server: cumulative acknowledgement of notices `..= upto`.
    Ack {
        /// Highest notice sequence number applied in order.
        upto: u64,
    },
}

impl Payload {
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Payload::RefreshRequest { .. } => "refresh_req",
            Payload::RefreshResponse { .. } => "refresh_resp",
            Payload::DigestRequest { .. } => "digest_req",
            Payload::DigestResponse { .. } => "digest_resp",
            Payload::Notice { .. } => "notice",
            Payload::Ack { .. } => "ack",
        }
    }

    /// Tuple weight for the link's payload accounting. Digests and acks
    /// are metadata-sized, counted as zero tuples.
    pub(crate) fn tuples(&self) -> u64 {
        match self {
            Payload::RefreshResponse { state, .. } => state.rel.len() as u64,
            Payload::DigestResponse { add, .. } => add.len() as u64,
            Payload::Notice { .. } => 1,
            _ => 0,
        }
    }
}

/// A wire frame: the protocol payload plus the propagated trace context
/// — the moral equivalent of a `traceparent` header. Every hop that
/// handles a sampled frame records its span *under the sender's span*,
/// so one logical operation (push → loss → retransmit → resync) renders
/// as a single causal tree whichever endpoint each span landed on.
///
/// Compatibility: [`TraceContext::NONE`] (all zeroes, the `Default`) is
/// what a peer that predates tracing would carry — hops propagate it
/// untouched and record nothing, so traced and untraced peers
/// interoperate on the same link.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Propagated trace position (which trace, which parent span).
    pub ctx: TraceContext,
    /// The protocol message.
    pub payload: Payload,
}

impl Frame {
    /// An untraced frame (carries [`TraceContext::NONE`]).
    #[must_use]
    pub fn untraced(payload: Payload) -> Self {
        Frame {
            ctx: TraceContext::NONE,
            payload,
        }
    }
}

/// Records one traced hop on `tracer`: a zero-duration span named
/// `<endpoint>.<label>` under the context's parent span, returning the
/// context the *next* frame should carry. Unsampled contexts pass through
/// untouched (and record nothing, the name is never built) — the
/// interoperability path.
pub(crate) fn record_hop(
    tracer: &Tracer,
    ctx: TraceContext,
    endpoint: &str,
    label: &str,
    now: u64,
    retransmission: bool,
) -> TraceContext {
    if !ctx.is_sampled() {
        return ctx;
    }
    let t = tracer.now_ns();
    let id = tracer.record_child(
        Some(ctx.parent_span),
        &format!("{endpoint}.{label}"),
        t,
        t,
        Some(now),
        vec![
            ("trace".to_string(), ctx.trace_id.to_string()),
            ("retransmission".to_string(), retransmission.to_string()),
        ],
    );
    if id == 0 {
        ctx
    } else {
        ctx.hop(id)
    }
}

/// Opens one trace on `tracer`: a zero-duration root span named `name` for
/// the logical operation numbered `seq` (a session, a notice), which every
/// hop of it — each transmission, the handling, the apply — hangs off.
/// `seq + 1` is a unique, non-zero trace id. A disabled tracer records
/// nothing and yields the unsampled context.
pub(crate) fn trace_root(
    tracer: &Tracer,
    name: &str,
    seq: u64,
    now: u64,
    view: Option<&str>,
) -> TraceContext {
    if !tracer.is_enabled() {
        return TraceContext::NONE;
    }
    let t = tracer.now_ns();
    let mut attrs: Vec<_> = view
        .map(|v| ("view".to_string(), v.to_string()))
        .into_iter()
        .collect();
    attrs.push(("trace".to_string(), (seq + 1).to_string()));
    match tracer.record_child(None, name, t, t, Some(now), attrs) {
        0 => TraceContext::NONE,
        root => TraceContext::new(seq + 1, root),
    }
}

/// FNV-1a, hand-rolled: `std`'s default hasher is randomly keyed per
/// process, which would make digests incomparable across runs (and make
/// fault schedules irreproducible). This one is a pure function of the
/// bytes fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    // Pin the integer paths to little-endian so digests do not depend on
    // the platform's native byte order.
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
}

/// Deterministic digest of one cached row: a function of the tuple's
/// values *and* its expiration time, so a server-side `texp` revision
/// shows up as divergence too.
#[must_use]
pub fn tuple_digest(tuple: &Tuple, texp: Time) -> u64 {
    let mut h = Fnv::new();
    tuple.hash(&mut h);
    h.write_u64(texp.finite().unwrap_or(u64::MAX));
    h.finish()
}

pub(crate) fn ticks(t: Time) -> u64 {
    t.finite().unwrap_or(u64::MAX - 1)
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
    link: FaultyLink<Frame>,
    policy: RetryPolicy,
    rng: StdRng,
    obs: Obs,
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
        let tracer = Tracer::attached(&obs);
        let mut link = FaultyLink::new(spec);
        link.link().attach_obs(&obs);
        link.link().round_trip(m.rel.len() as u64);
        Ok(ChaosDeletePush {
            expr,
            shadow: m.rel.clone(),
            cache: m.rel,
            link,
            policy,
            rng: StdRng::seed_from_u64(spec.seed ^ 0x5851_f42d_4c95_7f2d),
            obs,
            tracer,
            outbox: BTreeMap::new(),
            next_seq: 0,
            next_expected: 0,
            buffered: BTreeMap::new(),
            stats: SessionStats::default(),
        })
    }

    /// The fault-injected link.
    pub fn link(&mut self) -> &mut FaultyLink<Frame> {
        &mut self.link
    }

    /// The baseline's observability handle.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
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
    /// [`crate::ReplicaError::Db`].
    pub fn server_sync(&mut self, server: &Database) -> ReplicaResult<()> {
        let now = ticks(server.now());
        self.link.advance(now);

        // 1. Server: consume cumulative acks (untraced metadata frames).
        for frame in self.link.recv(now, Dir::ToServer) {
            if let Payload::Ack { upto } = frame.payload {
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
            let msg = Payload::Notice {
                seq,
                change: change.clone(),
            };
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
            self.link.send(
                now,
                Dir::ToClient,
                Frame { ctx, payload: msg },
                1,
                retransmission,
                "notice",
            );
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
        for frame in self.link.recv(now, Dir::ToClient) {
            if let Payload::Notice { seq, change } = frame.payload {
                received_any = true;
                if seq < self.next_expected || self.buffered.contains_key(&seq) {
                    // Idempotent re-delivery: already applied or already
                    // queued. The re-ack below repairs a lost ack.
                    self.stats.duplicates_ignored += 1;
                    continue;
                }
                record_hop(&self.tracer, frame.ctx, "client.recv", "notice", now, false);
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
        // Acks ride untraced frames — exactly what a peer that predates
        // tracing would send, exercising the compatibility path.
        if received_any && self.next_expected > 0 {
            let ack = Payload::Ack {
                upto: self.next_expected - 1,
            };
            self.link
                .send(now, Dir::ToServer, Frame::untraced(ack), 0, false, "ack");
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

    #[test]
    fn digests_are_deterministic_and_texp_sensitive() {
        use exptime_core::tuple;
        let t = tuple![1, 25];
        let d1 = tuple_digest(&t, Time::new(10));
        let d2 = tuple_digest(&t, Time::new(10));
        let d3 = tuple_digest(&t, Time::new(11));
        let d4 = tuple_digest(&tuple![1, 26], Time::new(10));
        assert_eq!(d1, d2);
        assert_ne!(d1, d3, "texp participates in the digest");
        assert_ne!(d1, d4);
    }
}
