//! Session protocol for replica sync over a [`FaultyLink`].
//!
//! The plain [`crate::replica::Replica`] assumes a synchronous,
//! loss-free round trip. Under the fault model of [`crate::fault`] a
//! request and its response have independent fates, so this module
//! layers the classic reliability machinery on top:
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
//! Two endpoints are provided: [`ChaosReplica`] (expiration-aware — the
//! paper's protagonist) and [`ChaosDeletePush`] (the explicit-delete
//! baseline, which must push every change and therefore suffers far more
//! under loss). Both are driven tick-synchronously against a server
//! [`Database`]; the chaos property tests assert that after
//! [`FaultyLink::heal`] + quiesce both converge back to the server's
//! truth for *every* seeded fault schedule.

use crate::fault::{Dir, Fate, FaultSpec, FaultyLink};
use crate::link::LinkStats;
use crate::replica::degraded;
use crate::{ReplicaError, ReplicaResult};
use exptime_core::algebra::{eval, EvalOptions, Expr, Materialized};
use exptime_core::interval::IntervalSet;
use exptime_core::relation::Relation;
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_engine::Database;
use exptime_obs::{EventKind, Health, Obs, SloConfig, StalenessMonitor, TraceContext, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
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
    /// [`ReplicaError::Timeout`].
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
    fn label(&self) -> &'static str {
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
    fn tuples(&self) -> u64 {
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

/// Records one traced hop on `tracer`: a zero-duration span named `name`
/// under the context's parent span, returning the context the *next*
/// frame should carry. Unsampled contexts pass through untouched (and
/// record nothing) — the interoperability path.
fn record_hop(
    tracer: &Tracer,
    ctx: TraceContext,
    name: &str,
    now: u64,
    retransmission: bool,
) -> TraceContext {
    if !ctx.is_sampled() {
        return ctx;
    }
    let t = tracer.now_ns();
    let id = tracer.record_child(
        Some(ctx.parent_span),
        name,
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
/// nothing (`record_child` returns 0) and yields the unsampled context.
fn trace_root(tracer: &Tracer, name: &str, seq: u64, now: u64, view: Option<&str>) -> TraceContext {
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

fn ticks(t: Time) -> u64 {
    t.finite().unwrap_or(u64::MAX - 1)
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
    /// Root of this session's trace: every frame the session emits
    /// descends from it. [`TraceContext::NONE`] when tracing is off.
    trace: TraceContext,
}

#[derive(Debug)]
struct ViewEntry {
    expr: Expr,
    m: Materialized,
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

/// How a [`ChaosReplica`] read was satisfied. Mirrors
/// [`crate::replica::ReadOutcome`] but with the session protocol's
/// degraded modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosReadOutcome {
    /// Served from the local materialisation; no communication.
    Local,
    /// A sync session completed (possibly this tick) and the fresh state
    /// was served.
    Synced,
    /// Sync incomplete (in flight, timed out, or link down); served the
    /// newest locally-correct state as of the returned time.
    Stale(Time),
}

/// The expiration-aware replica, chaos-hardened.
///
/// Owns both protocol endpoints of the simulation: the client cache and
/// the server-side request handler, with every message crossing the
/// [`FaultyLink`]. Reads never block: if the needed sync has not
/// completed, the read degrades to the newest instant the local state
/// provably covers (Theorem 2's validity intervals) and the session keeps
/// retrying on subsequent ticks.
#[derive(Debug)]
pub struct ChaosReplica {
    views: BTreeMap<String, ViewEntry>,
    link: FaultyLink<Frame>,
    policy: RetryPolicy,
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
    answered: BTreeMap<u64, ()>,
}

impl ChaosReplica {
    /// A chaos replica over a link with the given fault specification.
    #[must_use]
    pub fn new(spec: FaultSpec, policy: RetryPolicy) -> Self {
        Self::with_slo(spec, policy, SloConfig::default())
    }

    /// [`ChaosReplica::new`] with an explicit staleness SLO.
    #[must_use]
    pub fn with_slo(spec: FaultSpec, policy: RetryPolicy, slo: SloConfig) -> Self {
        let obs = Obs::new();
        let monitor = StalenessMonitor::new(&obs, slo);
        let tracer = Tracer::attached(&obs);
        let mut link = FaultyLink::new(spec);
        link.link().attach_obs(&obs);
        ChaosReplica {
            views: BTreeMap::new(),
            link,
            policy,
            rng: StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15),
            obs,
            monitor,
            tracer,
            stats: SessionStats::default(),
            next_seq: 0,
            answered: BTreeMap::new(),
        }
    }

    /// The replica's span tracer. Disabled by default; enable it to
    /// record every session as one causal trace across both endpoints
    /// (see [`Frame`]).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The replica's observability handle (link traces, divergence and
    /// resync events, SLO metrics).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The replica's health: `Degraded` once staleness or recovery lag
    /// has breached the configured SLO.
    #[must_use]
    pub fn health(&self) -> Health {
        self.monitor.health()
    }

    /// The fault-injected link (heal it, partition it, read its stats).
    pub fn link(&mut self) -> &mut FaultyLink<Frame> {
        &mut self.link
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

    /// Subscribes to a view. The initial state transfer runs through the
    /// session protocol, so under faults the subscription may complete on
    /// a later tick — reads before then degrade to `Stale` over an empty
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicaError::LinkRefused`] when the link is explicitly
    /// down, and evaluation errors for invalid expressions.
    pub fn subscribe(&mut self, name: &str, expr: Expr, server: &Database) -> ReplicaResult<()> {
        let now = ticks(server.now());
        let expr = server.inline_views(&expr);
        // The client authored the query, so it knows the result schema
        // statically: the type check stands in for that compile-time
        // knowledge, reads no rows and crosses no link.
        let schema = expr.schema(server)?;
        let placeholder = Materialized {
            rel: Relation::new(schema),
            at: Time::ZERO,
            texp: Time::ZERO, // never fresh: forces the first sync
            validity: IntervalSet::empty(),
            patches: None,
        };
        self.views.insert(
            name.to_string(),
            ViewEntry {
                expr,
                m: placeholder,
                session: None,
                degraded_since: Some(now),
                slo_reported: false,
                last_timeout: None,
            },
        );
        let fate = self.open_session(name, SessionKind::Refresh, now);
        if fate == Fate::Refused {
            self.views.remove(name);
            return Err(ReplicaError::LinkRefused {
                op: format!("subscribe `{name}`"),
            });
        }
        self.pump(server)?;
        Ok(())
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
        self.link.advance(now);

        // Server endpoint: answer due requests.
        let inbound = self.link.recv(now, Dir::ToServer);
        for msg in inbound {
            self.handle_server(msg, server)?;
        }

        // Client endpoint: apply due responses.
        let inbound = self.link.recv(now, Dir::ToClient);
        for msg in inbound {
            self.handle_client(msg, now);
        }

        // Retransmit / expire overdue sessions.
        self.drive_sessions(now);
        Ok(())
    }

    /// Server endpoint: answers a refresh or digest request with a fresh
    /// evaluation — whole, or only where it diverges from the digests.
    fn handle_server(&mut self, frame: Frame, server: &Database) -> ReplicaResult<()> {
        let now = ticks(server.now());
        let hop = format!("server.handle.{}", frame.payload.label());
        let (view, seq, digests) = match frame.payload {
            Payload::RefreshRequest { view, seq } => (view, seq, None),
            Payload::DigestRequest { view, seq, digests } => (view, seq, Some(digests)),
            // Responses/notices/acks never travel client → server here.
            _ => return Ok(()),
        };
        let retransmission = self.answered.insert(seq, ()).is_some();
        let Some(entry) = self.views.get(&view) else {
            return Ok(());
        };
        // The server's span parents under the *sender's* send span — the
        // cross-endpoint stitch.
        let ctx = record_hop(&self.tracer, frame.ctx, &hop, now, retransmission);
        let fresh = eval(&entry.expr, server, server.now(), &EvalOptions::default())?;
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
                }
            }
        };
        let (tuples, label) = (resp.tuples(), resp.label());
        let frame = Frame { ctx, payload: resp };
        self.link
            .send(now, Dir::ToClient, frame, tuples, retransmission, label);
        Ok(())
    }

    /// Client endpoint: applies the response that answers a view's open
    /// session and closes the session. Anything else — a duplicate, a
    /// response to a session since superseded or abandoned — is counted
    /// and dropped, which is what makes re-delivery idempotent.
    fn handle_client(&mut self, frame: Frame, now: u64) {
        let (view, seq, kind) = match &frame.payload {
            Payload::RefreshResponse { view, seq, .. } => {
                (view.clone(), *seq, SessionKind::Refresh)
            }
            Payload::DigestResponse { view, seq, .. } => (view.clone(), *seq, SessionKind::Digest),
            _ => {
                self.stats.duplicates_ignored += 1;
                return;
            }
        };
        let Some(entry) = self.views.get_mut(&view) else {
            return;
        };
        let session = match entry.session.take() {
            Some(s) if s.kind == kind && s.seq == seq => s,
            other => {
                entry.session = other;
                self.stats.duplicates_ignored += 1;
                return;
            }
        };
        let hop = format!("client.apply.{}", frame.payload.label());
        record_hop(&self.tracer, frame.ctx, &hop, now, false);
        let reconciled = match frame.payload {
            Payload::DigestResponse {
                add,
                drop,
                at,
                texp,
                validity,
                ..
            } => {
                let shipped = add.len() as u64;
                let divergent = shipped + drop.len() as u64;
                // Drops first: a texp revision appears as drop(old) +
                // add(new) for the same tuple.
                let drop: BTreeSet<u64> = drop.into_iter().collect();
                let m = &mut entry.m;
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
                    if Change::Add(t, e).apply(&mut m.rel).is_err() {
                        return;
                    }
                }
                (m.at, m.texp, m.validity, m.patches) = (at, texp, validity, None);
                Some((divergent, shipped))
            }
            Payload::RefreshResponse { state, .. } => {
                entry.m = state;
                None
            }
            _ => unreachable!("matched a response above"),
        };
        entry.last_timeout = None;
        entry.slo_reported = false;
        self.stats.sessions_completed += 1;
        // A session is opened by a reader or a reconciliation that has
        // already marked the view degraded, possibly ticks earlier.
        let since = entry.degraded_since.take();
        let recovery =
            now.saturating_sub(since.map_or(session.started, |d| d.min(session.started)));
        if let Some((divergent, shipped)) = reconciled {
            self.stats.reconciliations += 1;
            self.stats.divergent_tuples += divergent;
            self.obs.emit_with(Some(now), || EventKind::ReplicaResync {
                view: view.clone(),
                divergent,
                shipped,
                recovery_ticks: recovery,
                at: now,
            });
        }
        self.monitor.observe_resync(&view, recovery, now);
    }

    /// Opens a session for `name` and transmits its first request.
    fn open_session(&mut self, name: &str, kind: SessionKind, now: u64) -> Fate {
        let seq = self.next_seq;
        self.next_seq += 1;
        let first_delay = self.policy.delay(0, &mut self.rng);
        let root = match kind {
            SessionKind::Refresh => "session.refresh",
            SessionKind::Digest => "session.digest",
        };
        let trace = trace_root(&self.tracer, root, seq, now, Some(name));
        let Some(entry) = self.views.get_mut(name) else {
            return Fate::Refused;
        };
        entry.session = Some(SyncSession {
            kind,
            seq,
            started: now,
            attempts: 1,
            next_retry: now + first_delay,
            trace,
        });
        self.stats.sessions_started += 1;
        self.send_request(name, now, false)
    }

    /// Transmits the request of `name`'s open session: its first send and
    /// every retransmission. A retransmission is a fresh hop under the same
    /// session root — the trace shows each attempt, not just the one that
    /// landed — and a digest request is rebuilt from the cache as it is
    /// now.
    fn send_request(&mut self, name: &str, now: u64, retransmission: bool) -> Fate {
        let Some(entry) = self.views.get(name) else {
            return Fate::Refused;
        };
        let Some(s) = &entry.session else {
            return Fate::Refused;
        };
        let (view, seq) = (name.to_string(), s.seq);
        let req = match s.kind {
            SessionKind::Refresh => Payload::RefreshRequest { view, seq },
            SessionKind::Digest => Payload::DigestRequest {
                view,
                seq,
                digests: entry
                    .m
                    .rel
                    .iter()
                    .map(|(t, e)| tuple_digest(t, e))
                    .collect(),
            },
        };
        let label = req.label();
        let hop = format!("client.send.{label}");
        let ctx = record_hop(&self.tracer, s.trace, &hop, now, retransmission);
        let frame = Frame { ctx, payload: req };
        self.link
            .send(now, Dir::ToServer, frame, 0, retransmission, label)
    }

    /// Retries overdue sessions and abandons those past the budget.
    fn drive_sessions(&mut self, now: u64) {
        let names: Vec<String> = self.views.keys().cloned().collect();
        for name in names {
            let entry = self.views.get_mut(&name).unwrap();
            let Some(s) = entry.session.as_mut() else {
                continue;
            };
            if now.saturating_sub(s.started) >= self.policy.budget {
                entry.last_timeout = Some((s.attempts, now.saturating_sub(s.started)));
                entry.session = None;
                self.stats.sessions_timed_out += 1;
                continue;
            }
            if now < s.next_retry {
                continue;
            }
            s.next_retry = now + self.policy.delay(s.attempts, &mut self.rng);
            s.attempts += 1;
            self.send_request(&name, now, true);
            self.stats.retries += 1;
        }
    }

    /// Reads a subscribed view at the server's current time.
    ///
    /// Fresh local state is served with zero communication (Theorem 2).
    /// Otherwise a sync session is opened (or continued); if it completes
    /// within this tick the synced state is served, else the read degrades
    /// to the newest covered instant.
    ///
    /// # Errors
    ///
    /// Unknown views error; a view whose sync timed out *and* whose cache
    /// covers no instant at all returns [`ReplicaError::Timeout`].
    pub fn read(
        &mut self,
        name: &str,
        server: &Database,
    ) -> ReplicaResult<(Relation, ChaosReadOutcome)> {
        let now_t = server.now();
        let now = ticks(now_t);
        self.pump(server)?;
        let entry = self.views.get_mut(name).ok_or_else(|| {
            ReplicaError::Db(exptime_engine::DbError::Catalog(format!(
                "not subscribed to `{name}`"
            )))
        })?;

        // Not covered now and no sync under way: open one. Its response
        // may land this very tick.
        let mut current = ChaosReadOutcome::Local;
        if entry.session.is_none() && !entry.m.valid_at(now_t) {
            entry.degraded_since.get_or_insert(now);
            self.open_session(name, SessionKind::Refresh, now);
            self.pump(server)?;
            current = ChaosReadOutcome::Synced;
        }
        let entry = self.views.get_mut(name).unwrap();
        if entry.session.is_none() && entry.m.valid_at(now_t) {
            return Ok((entry.m.rows_at(now_t), current));
        }

        // Degrade: newest instant the local state provably covers.
        let Some((rel, back)) = degraded(&entry.m, name, now_t, &self.obs) else {
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
            if lag > self.monitor.config().max_resync_lag && !entry.slo_reported {
                entry.slo_reported = true;
                self.monitor.observe_resync(name, lag, now);
            }
        }
        Ok((rel, ChaosReadOutcome::Stale(back)))
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
        let names: Vec<String> = self.views.keys().cloned().collect();
        for name in names {
            let entry = self.views.get_mut(&name).unwrap();
            if entry.session.is_some() {
                continue; // a sync is already in flight
            }
            if entry.degraded_since.is_none() {
                entry.degraded_since = Some(now);
            }
            self.open_session(&name, SessionKind::Digest, now);
        }
        self.pump(server)
    }

    /// Whether every view is synced (no open sessions, nothing in
    /// flight). The chaos tests drive `pump` until this holds after
    /// healing the link.
    #[must_use]
    pub fn quiesced(&self) -> bool {
        self.link.in_flight() == 0 && self.views.values().all(|v| v.session.is_none())
    }
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
    /// [`ReplicaError::Db`].
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
                "server.send.notice",
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
                record_hop(&self.tracer, frame.ctx, "client.recv.notice", now, false);
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

    fn diff_expr() -> Expr {
        Expr::base("pol")
            .project([0])
            .difference(Expr::base("el").project([0]))
    }

    #[test]
    fn healthy_link_matches_synchronous_replica() {
        let mut srv = server();
        let mut rep = ChaosReplica::new(FaultSpec::none(1), RetryPolicy::default());
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        for _ in 0..20 {
            srv.tick(1);
            let (rel, _) = rep.read("others", &srv).unwrap();
            let truth = srv
                .execute("SELECT uid FROM pol EXCEPT SELECT uid FROM el")
                .unwrap();
            assert!(rel.set_eq(truth.rows().unwrap()), "at {:?}", srv.now());
        }
        // No faults → no retries, no timeouts, no duplicates.
        let s = rep.session_stats();
        assert_eq!(s.retries, 0);
        assert_eq!(s.sessions_timed_out, 0);
        assert_eq!(s.duplicates_ignored, 0);
        assert_eq!(rep.link_stats().retransmissions, 0);
    }

    #[test]
    fn monotonic_view_needs_no_messages_even_under_chaos() {
        let mut srv = server();
        let mut rep = ChaosReplica::new(FaultSpec::chaos(7), RetryPolicy::default());
        rep.subscribe(
            "hot",
            Expr::base("pol").select(Predicate::attr_eq_const(1, 25)),
            &srv,
        )
        .unwrap();
        // Complete the (possibly fault-delayed) subscription first.
        for _ in 0..40 {
            srv.tick(1);
            rep.pump(&srv).unwrap();
            if rep.quiesced() {
                break;
            }
        }
        assert!(rep.quiesced(), "{}", rep.link().schedule_report());
        let base = rep.link_stats().attempted_messages();
        for _ in 0..20 {
            srv.tick(1);
            let (rel, outcome) = rep.read("hot", &srv).unwrap();
            assert_eq!(outcome, ChaosReadOutcome::Local);
            let truth = srv.execute("SELECT * FROM pol WHERE deg = 25").unwrap();
            assert!(rel.set_eq(truth.rows().unwrap()));
        }
        assert_eq!(
            rep.link_stats().attempted_messages(),
            base,
            "Theorem 1 survives chaos: zero maintenance traffic"
        );
    }

    #[test]
    fn lossy_link_retries_until_synced() {
        let mut srv = server();
        let mut rep = ChaosReplica::new(FaultSpec::lossy(3, 0.6), RetryPolicy::default());
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
        let truth = srv
            .execute("SELECT uid FROM pol EXCEPT SELECT uid FROM el")
            .unwrap();
        assert!(
            rel.set_eq(truth.rows().unwrap()),
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
        let mut rep = ChaosReplica::new(spec, RetryPolicy::default());
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        for _ in 0..20 {
            srv.tick(1);
            let (rel, _) = rep.read("others", &srv).unwrap();
            let truth = srv
                .execute("SELECT uid FROM pol EXCEPT SELECT uid FROM el")
                .unwrap();
            assert!(rel.set_eq(truth.rows().unwrap()), "at {:?}", srv.now());
        }
        assert!(
            rep.session_stats().duplicates_ignored > 0,
            "every message was duplicated; the copies must be discarded"
        );
    }

    #[test]
    fn timed_out_session_degrades_to_stale_cache() {
        let mut srv = server();
        let policy = RetryPolicy {
            budget: 4,
            ..RetryPolicy::default()
        };
        let mut rep = ChaosReplica::new(FaultSpec::none(1), policy);
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        // Cache is synced at t=0; partition the link manually, then let
        // the view expire (texp = 3).
        rep.link().link().disconnect();
        srv.tick(5);
        let (rel, outcome) = rep.read("others", &srv).unwrap();
        match outcome {
            ChaosReadOutcome::Stale(back) => {
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
            assert!(matches!(outcome, ChaosReadOutcome::Stale(_)));
        }
        assert!(rep.session_stats().sessions_timed_out >= 1);
    }

    #[test]
    fn reconcile_ships_only_divergent_tuples() {
        let mut srv = server();
        let mut rep = ChaosReplica::new(FaultSpec::none(1), RetryPolicy::default());
        rep.subscribe("all", Expr::base("pol"), &srv).unwrap();
        let ring = rep.obs().install_ring(64);
        // Mutate the server while the replica is partitioned.
        rep.link().link().disconnect();
        srv.execute("INSERT INTO pol VALUES (9, 99) EXPIRES AT 50")
            .unwrap();
        srv.tick(1);
        rep.link().link().reconnect();
        let before = rep.link_stats().tuples_transferred;
        rep.reconcile(&srv).unwrap();
        assert!(rep.quiesced());
        let (rel, outcome) = rep.read("all", &srv).unwrap();
        assert_eq!(outcome, ChaosReadOutcome::Local);
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
    fn disconnected_replica_health_reports_staleness_after_texp() {
        let mut srv = server();
        let slo = SloConfig {
            max_resync_lag: 2,
            ..SloConfig::default()
        };
        let mut rep = ChaosReplica::with_slo(FaultSpec::none(1), RetryPolicy::default(), slo);
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        rep.link().link().disconnect();
        // While texp (= 3) has not passed, reads are local and healthy.
        srv.tick(2);
        let (_, outcome) = rep.read("others", &srv).unwrap();
        assert_eq!(outcome, ChaosReadOutcome::Local);
        assert!(rep.health().to_string().contains("status: ok"));
        // Once texp lapses the replica serves stale state and health
        // degrades after the staleness SLO (2 ticks) is breached.
        srv.tick(3);
        for _ in 0..4 {
            srv.tick(1);
            let (_, outcome) = rep.read("others", &srv).unwrap();
            assert!(matches!(outcome, ChaosReadOutcome::Stale(_)));
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
        let mut rep = ChaosReplica::new(FaultSpec::none(1), RetryPolicy::default());
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
        let mut rep = ChaosReplica::new(FaultSpec::none(1), RetryPolicy::default());
        rep.subscribe("others", diff_expr(), &srv).unwrap();
        srv.tick(5);
        let _ = rep.read("others", &srv);
        assert!(rep.tracer().recent(64).is_empty());
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
