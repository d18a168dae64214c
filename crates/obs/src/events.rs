//! Structured event tracing for the expiration domain.
//!
//! An [`Obs`] handle pairs a [`MetricsRegistry`] with an optional
//! [`EventSink`]. With no sink installed, [`Obs::emit_with`] costs one
//! relaxed `AtomicBool` load and the event payload is never constructed —
//! this is the "near-zero-cost when dark" guarantee the benches rely on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, MetricsRegistry};

/// Why a materialised-view read was (or was not) recomputed — the
/// observable form of the paper's Theorems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshDecision {
    /// Theorem 1: the view's expression is monotonic, so the
    /// materialisation never expires (texp = ∞).
    Eternal,
    /// Theorem 2: the current time is still inside the materialisation's
    /// validity interval; served as-is.
    ValidityHit,
    /// Theorem 3: a root-difference patch queue absorbed the change; the
    /// stored result was patched instead of recomputed.
    PatchHit,
    /// The materialisation had expired (or never existed); recomputed
    /// from base relations.
    Recompute,
}

impl std::fmt::Display for RefreshDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RefreshDecision::Eternal => "eternal (Theorem 1)",
            RefreshDecision::ValidityHit => "validity-hit (Theorem 2)",
            RefreshDecision::PatchHit => "patch-hit (Theorem 3)",
            RefreshDecision::Recompute => "recompute",
        };
        f.write_str(s)
    }
}

/// What happened. Field names favour the expiration domain's vocabulary:
/// `texp` is the tuple's expiration time, `at`/`fired_at` are logical
/// clock readings.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A tuple reached its expiration time and left a table.
    TupleExpired {
        table: String,
        texp: u64,
        fired_at: u64,
    },
    /// An expiration trigger ran. Under lazy removal `fired_at > texp`:
    /// the Section 3.2 punctuality-for-throughput trade.
    TriggerFired {
        table: String,
        texp: u64,
        fired_at: u64,
    },
    /// A lazy-removal vacuum pass completed.
    VacuumPass { at: u64, removed: u64 },
    /// The engine's logical clock moved.
    ClockAdvance { from: u64, to: u64 },
    /// A materialised view served a read with the given decision.
    ViewRefresh {
        view: String,
        decision: RefreshDecision,
        at: u64,
    },
    /// A replica link carried a message.
    ReplicaMessage { kind: String, tuples: u64 },
    /// A replica answered from a stale (but Schrödinger-covered)
    /// materialisation while its link was down.
    ReplicaDivergence { view: String, behind: u64 },
    /// Anti-entropy reconciliation after a reconnect: the replica and
    /// server exchanged digests over a materialised view and resynced only
    /// the divergent tuples.
    ReplicaResync {
        view: String,
        /// Tuples the digest exchange found divergent (shipped + dropped).
        divergent: u64,
        /// Tuples actually shipped server → client to repair the state.
        shipped: u64,
        /// Logical ticks between the first failed sync and this repair.
        recovery_ticks: u64,
        at: u64,
    },
    /// A tracing span finished. Emitted by `Tracer` so spans interleave
    /// causally with domain events in the same ring (`\events`).
    SpanClosed {
        name: String,
        id: u64,
        parent: Option<u64>,
        duration_ns: u64,
    },
    /// A service-level objective was violated (trigger lateness, refresh
    /// latency, …). `observed` and `threshold` share the unit named by
    /// `slo`.
    SloBreach {
        slo: String,
        subject: String,
        observed: u64,
        threshold: u64,
        at: u64,
    },
    /// The WAL wrote a checkpoint: live rows were snapshotted and the
    /// log was truncated, reclaiming `log_bytes_reclaimed` bytes —
    /// including every record of tuples already expired at `at`, the
    /// expiration-aware truncation pay-off.
    Checkpoint {
        at: u64,
        live_rows: u64,
        log_bytes_reclaimed: u64,
    },
    /// A database recovered from its WAL on open. `skipped_expired`
    /// counts committed insert records not replayed because their tuples
    /// were already dead at the recovered clock; `torn_bytes` is the
    /// crash tail discarded after the last intact frame.
    WalRecovery {
        at: u64,
        replayed: u64,
        skipped_expired: u64,
        skipped_uncommitted: u64,
        torn_bytes: u64,
    },
    /// The static analyzer flagged a statement (see DESIGN.md §11 for the
    /// code registry). One event per diagnostic, so `\events` interleaves
    /// lint findings with the view lifecycle they predict.
    LintDiagnostic {
        /// Registry code, e.g. `"X002"`.
        code: String,
        /// `"error"` / `"warning"` / `"info"`.
        severity: String,
        /// View name when linting a CREATE, `"-"` for ad-hoc queries.
        subject: String,
    },
    /// The expiration-horizon forecaster predicts an expiration storm:
    /// a forecast bucket's expirations-per-tick rate exceeds the
    /// configured threshold. Because `texp` fully determines future
    /// visibility, this is a *prediction*, not a post-mortem: the bucket
    /// covers logical times `[at + lo, at + hi]` which have not happened
    /// yet.
    StormWarning {
        /// Bucket offset window start, ticks from `at` (inclusive).
        lo: u64,
        /// Bucket offset window end, ticks from `at` (inclusive).
        hi: u64,
        /// Tuples predicted to expire inside the window.
        predicted: u64,
        /// Configured per-tick threshold the bucket's rate exceeded.
        threshold: u64,
        /// Logical clock when the forecast was taken.
        at: u64,
    },
    /// The telemetry sampler persisted one sample into the `_telemetry`
    /// history tables; every row carries `texp = at + retention`, so the
    /// sample retires by ordinary expiration.
    TelemetrySample {
        /// Logical clock of the sample.
        at: u64,
        /// Rows inserted (metric rows plus the health row).
        rows: u64,
        /// Retention in ticks — the rows' time to live.
        retention: u64,
    },
    /// The telemetry HTTP server served (or rejected) one request.
    HttpRequest {
        /// Request method, e.g. `GET`.
        method: String,
        /// Request path, e.g. `/metrics`.
        path: String,
        /// Response status code.
        status: u16,
        /// Wall-clock service latency in nanoseconds (server-side I/O is
        /// outside the logical clock's domain).
        ns: u64,
    },
    /// A wire-protocol session was opened or resumed. `resumed` is true
    /// when the client presented an existing token after a reconnect;
    /// `applied` is the highest statement sequence number already applied
    /// under that session (the exactly-once high-water mark the client
    /// replays from).
    NetSession {
        token: u64,
        resumed: bool,
        applied: u64,
    },
    /// Admission control refused a statement because the bounded queue
    /// was full. The client was told to retry after `retry_after_ms`.
    NetShed {
        queue_depth: u64,
        retry_after_ms: u64,
    },
    /// The server entered or left degraded mode. While degraded, reads
    /// are answered from texp-valid (or Schrödinger-covered stale)
    /// materialisations instead of queueing on the engine.
    NetDegraded { on: bool, queue_depth: u64 },
    /// Graceful drain finished: accepting stopped, every in-flight
    /// statement completed (zero acked writes lost), queued work was
    /// shed with a retry hint.
    NetDrain {
        sessions: u64,
        completed: u64,
        shed: u64,
    },
    /// A table's TTL policy was set, replaced, or cleared (`CREATE TABLE
    /// … TTL`, `ALTER TABLE … SET TTL`). `policy` is the rendered policy
    /// (`"absolute"` when cleared).
    PolicyChange {
        table: String,
        policy: String,
        at: u64,
    },
    /// Observed staleness exceeded the whole-database audit's *proven*
    /// static bound for `subject`. The bound is an invariant of the
    /// policy configuration, so a breach means an analyzer bug or clock
    /// misuse — this event should never fire in a correct build.
    AuditViolation {
        subject: String,
        observed: u64,
        bound: u64,
        at: u64,
    },
}

impl EventKind {
    /// Short machine-friendly tag (also the event taxonomy in docs).
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::TupleExpired { .. } => "tuple_expired",
            EventKind::TriggerFired { .. } => "trigger_fired",
            EventKind::VacuumPass { .. } => "vacuum_pass",
            EventKind::ClockAdvance { .. } => "clock_advance",
            EventKind::ViewRefresh { .. } => "view_refresh",
            EventKind::ReplicaMessage { .. } => "replica_message",
            EventKind::ReplicaDivergence { .. } => "replica_divergence",
            EventKind::ReplicaResync { .. } => "replica_resync",
            EventKind::SpanClosed { .. } => "span_closed",
            EventKind::SloBreach { .. } => "slo_breach",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::WalRecovery { .. } => "wal_recovery",
            EventKind::LintDiagnostic { .. } => "lint",
            EventKind::StormWarning { .. } => "storm_warning",
            EventKind::TelemetrySample { .. } => "telemetry_sample",
            EventKind::HttpRequest { .. } => "http_request",
            EventKind::NetSession { .. } => "net_session",
            EventKind::NetShed { .. } => "net_shed",
            EventKind::NetDegraded { .. } => "net_degraded",
            EventKind::NetDrain { .. } => "net_drain",
            EventKind::PolicyChange { .. } => "policy_change",
            EventKind::AuditViolation { .. } => "audit_violation",
        }
    }
}

/// One logged event. `logical_time` is the engine clock when known (wall
/// time is deliberately absent: the paper's world runs on now-relative
/// logical time).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub seq: u64,
    pub logical_time: Option<u64>,
    pub kind: EventKind,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:<5} ", self.seq)?;
        match self.logical_time {
            Some(t) => write!(f, "t={t:<6} ")?,
            None => write!(f, "t=?      ")?,
        }
        match &self.kind {
            EventKind::TupleExpired {
                table,
                texp,
                fired_at,
            } => {
                write!(
                    f,
                    "tuple_expired   table={table} texp={texp} fired_at={fired_at}"
                )
            }
            EventKind::TriggerFired {
                table,
                texp,
                fired_at,
            } => {
                let late = fired_at.saturating_sub(*texp);
                write!(
                    f,
                    "trigger_fired   table={table} texp={texp} fired_at={fired_at} late={late}"
                )
            }
            EventKind::VacuumPass { at, removed } => {
                write!(f, "vacuum_pass     at={at} removed={removed}")
            }
            EventKind::ClockAdvance { from, to } => {
                write!(f, "clock_advance   {from} -> {to}")
            }
            EventKind::ViewRefresh { view, decision, at } => {
                write!(f, "view_refresh    view={view} at={at} decision={decision}")
            }
            EventKind::ReplicaMessage { kind, tuples } => {
                write!(f, "replica_message kind={kind} tuples={tuples}")
            }
            EventKind::ReplicaDivergence { view, behind } => {
                write!(f, "replica_diverge view={view} behind={behind}")
            }
            EventKind::ReplicaResync {
                view,
                divergent,
                shipped,
                recovery_ticks,
                at,
            } => {
                write!(
                    f,
                    "replica_resync  view={view} divergent={divergent} shipped={shipped} recovery={recovery_ticks} at={at}"
                )
            }
            EventKind::SpanClosed {
                name,
                id,
                parent,
                duration_ns,
            } => {
                write!(f, "span_closed     {name} id={id}")?;
                match parent {
                    Some(p) => write!(f, " parent={p}")?,
                    None => write!(f, " parent=-")?,
                }
                write!(f, " dur={duration_ns}ns")
            }
            EventKind::SloBreach {
                slo,
                subject,
                observed,
                threshold,
                at,
            } => {
                write!(
                    f,
                    "slo_breach      slo={slo} subject={subject} observed={observed} threshold={threshold} at={at}"
                )
            }
            EventKind::Checkpoint {
                at,
                live_rows,
                log_bytes_reclaimed,
            } => {
                write!(
                    f,
                    "checkpoint      at={at} live_rows={live_rows} reclaimed={log_bytes_reclaimed}B"
                )
            }
            EventKind::WalRecovery {
                at,
                replayed,
                skipped_expired,
                skipped_uncommitted,
                torn_bytes,
            } => {
                write!(
                    f,
                    "wal_recovery    at={at} replayed={replayed} skipped_expired={skipped_expired} skipped_uncommitted={skipped_uncommitted} torn={torn_bytes}B"
                )
            }
            EventKind::LintDiagnostic {
                code,
                severity,
                subject,
            } => {
                write!(f, "lint            {code} [{severity}] subject={subject}")
            }
            EventKind::StormWarning {
                lo,
                hi,
                predicted,
                threshold,
                at,
            } => {
                write!(
                    f,
                    "storm_warning   window=[+{lo},+{hi}] predicted={predicted} threshold={threshold}/tick at={at}"
                )
            }
            EventKind::TelemetrySample {
                at,
                rows,
                retention,
            } => {
                write!(
                    f,
                    "telemetry_sample at={at} rows={rows} retention={retention}"
                )
            }
            EventKind::HttpRequest {
                method,
                path,
                status,
                ns,
            } => {
                write!(f, "http_request    {method} {path} -> {status} ({ns} ns)")
            }
            EventKind::NetSession {
                token,
                resumed,
                applied,
            } => {
                let how = if *resumed { "resumed" } else { "opened" };
                write!(
                    f,
                    "net_session     token={token:#x} {how} applied={applied}"
                )
            }
            EventKind::NetShed {
                queue_depth,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "net_shed        queue_depth={queue_depth} retry_after={retry_after_ms}ms"
                )
            }
            EventKind::NetDegraded { on, queue_depth } => {
                let state = if *on { "enter" } else { "leave" };
                write!(f, "net_degraded    {state} queue_depth={queue_depth}")
            }
            EventKind::NetDrain {
                sessions,
                completed,
                shed,
            } => {
                write!(
                    f,
                    "net_drain       sessions={sessions} completed={completed} shed={shed}"
                )
            }
            EventKind::PolicyChange { table, policy, at } => {
                write!(
                    f,
                    "policy_change   table={table} policy=\"{policy}\" at={at}"
                )
            }
            EventKind::AuditViolation {
                subject,
                observed,
                bound,
                at,
            } => {
                write!(
                    f,
                    "audit_violation subject={subject} observed={observed} bound={bound} at={at}"
                )
            }
        }
    }
}

/// Where emitted events go. Implementations must be cheap and non-blocking
/// in spirit: they run inline on engine paths.
pub trait EventSink: Send + Sync {
    fn emit(&self, event: &Event);
}

/// A bounded in-memory ring of recent events (what `\events` reads).
///
/// # Overflow semantics
///
/// The ring holds at most `cap` events. When a new event arrives at a
/// full ring, the **oldest** buffered event is evicted to make room —
/// recent history always wins, and an emit never blocks or fails. Every
/// eviction increments the [`RingSink::dropped`] count (and, when wired
/// via [`RingSink::with_drop_counter`] / [`Obs::install_ring`], the
/// `obs.events_dropped` registry counter) so loss is observable rather
/// than silent.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
    drop_counter: Option<Counter>,
    high_water: AtomicU64,
    high_water_gauge: Option<Gauge>,
}

impl RingSink {
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            drop_counter: None,
            high_water: AtomicU64::new(0),
            high_water_gauge: None,
        }
    }

    /// Like [`RingSink::new`], but evictions also bump `counter` so the
    /// loss shows up in metrics exports alongside the local count.
    pub fn with_drop_counter(cap: usize, counter: Counter) -> Self {
        RingSink {
            drop_counter: Some(counter),
            ..RingSink::new(cap)
        }
    }

    /// Like [`RingSink::with_drop_counter`], but the buffer's high-water
    /// mark is also mirrored into `gauge` — so ring sizing is tunable
    /// from metrics exports *before* the first drop happens, instead of
    /// only after `obs.events_dropped` starts climbing.
    pub fn with_telemetry(cap: usize, counter: Counter, gauge: Gauge) -> Self {
        RingSink {
            high_water_gauge: Some(gauge),
            ..RingSink::with_drop_counter(cap, counter)
        }
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let buf = self.buf.lock().unwrap();
        buf.iter()
            .skip(buf.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.lock().unwrap().is_empty()
    }

    /// Events evicted by the ring bound since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The largest number of events ever buffered at once. At `cap` the
    /// ring has saturated at least once and older events started dropping.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    pub fn clear(&self) {
        self.buf.lock().unwrap().clear();
    }
}

impl EventSink for RingSink {
    fn emit(&self, event: &Event) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() == self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = &self.drop_counter {
                c.inc();
            }
        }
        buf.push_back(event.clone());
        let filled = buf.len() as u64;
        if filled > self.high_water.load(Ordering::Relaxed) {
            self.high_water.store(filled, Ordering::Relaxed);
            if let Some(g) = &self.high_water_gauge {
                g.set(filled as i64);
            }
        }
    }
}

/// Writes every event to stderr as it happens (debugging / demos).
#[derive(Debug)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn emit(&self, event: &Event) {
        eprintln!("[obs] {event}");
    }
}

#[derive(Default)]
struct ObsInner {
    registry: MetricsRegistry,
    has_sink: AtomicBool,
    sink: Mutex<Option<Arc<dyn EventSink>>>,
    seq: AtomicU64,
}

/// The handle instrumented code holds: a shared metrics registry plus an
/// optional event sink. Cloning shares both.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("has_sink", &self.has_sink())
            .finish_non_exhaustive()
    }
}

impl Obs {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Routes subsequent events to `sink`.
    pub fn install_sink(&self, sink: Arc<dyn EventSink>) {
        *self.inner.sink.lock().unwrap() = Some(sink);
        self.inner.has_sink.store(true, Ordering::Release);
    }

    /// Installs a fresh [`RingSink`] of capacity `cap` and returns it.
    /// The ring's evictions are mirrored into the registry counter
    /// `obs.events_dropped`, and its buffer high-water mark into the
    /// gauge `obs.events_ring_high_water`, so both overflow and
    /// near-overflow are visible in metrics exports.
    pub fn install_ring(&self, cap: usize) -> Arc<RingSink> {
        let counter = self.registry().counter("obs.events_dropped");
        let gauge = self.registry().gauge("obs.events_ring_high_water");
        let ring = Arc::new(RingSink::with_telemetry(cap, counter, gauge));
        self.install_sink(ring.clone());
        ring
    }

    /// Whether anything is listening. Instrumented code may use this to
    /// skip building expensive context.
    #[inline]
    pub fn has_sink(&self) -> bool {
        self.inner.has_sink.load(Ordering::Relaxed)
    }

    /// Emits an eagerly built event. Prefer [`Obs::emit_with`] on paths
    /// where constructing [`EventKind`] allocates.
    pub fn emit(&self, logical_time: Option<u64>, kind: EventKind) {
        if self.has_sink() {
            self.emit_now(logical_time, kind);
        }
    }

    /// Emits an event whose payload is only built if a sink is installed.
    #[inline]
    pub fn emit_with(&self, logical_time: Option<u64>, kind: impl FnOnce() -> EventKind) {
        if self.has_sink() {
            self.emit_now(logical_time, kind());
        }
    }

    fn emit_now(&self, logical_time: Option<u64>, kind: EventKind) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            logical_time,
            kind,
        };
        if let Some(sink) = self.inner.sink.lock().unwrap().as_ref() {
            sink.emit(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dark_obs_emits_nothing_and_builds_nothing() {
        let obs = Obs::new();
        let mut built = false;
        obs.emit_with(Some(1), || {
            built = true;
            EventKind::VacuumPass { at: 1, removed: 0 }
        });
        assert!(!built, "payload must not be built without a sink");
        assert!(!obs.has_sink());
    }

    #[test]
    fn ring_keeps_most_recent() {
        let obs = Obs::new();
        let ring = obs.install_ring(3);
        for i in 0..5 {
            obs.emit(Some(i), EventKind::ClockAdvance { from: i, to: i + 1 });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let recent = ring.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[1].kind, EventKind::ClockAdvance { from: 4, to: 5 });
        assert!(recent[0].seq < recent[1].seq);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts_loss() {
        let obs = Obs::new();
        let ring = obs.install_ring(2);
        for i in 0..5 {
            obs.emit(Some(i), EventKind::ClockAdvance { from: i, to: i + 1 });
        }
        // Drop-oldest: only the two newest events survive, in order.
        let all = ring.recent(usize::MAX);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].kind, EventKind::ClockAdvance { from: 3, to: 4 });
        assert_eq!(all[1].kind, EventKind::ClockAdvance { from: 4, to: 5 });
        // Loss is observable both locally and in the metrics registry.
        assert_eq!(ring.dropped(), 3);
        assert_eq!(obs.registry().counter_value("obs.events_dropped"), 3);
    }

    #[test]
    fn ring_high_water_tracks_peak_fill_before_drops() {
        let obs = Obs::new();
        let ring = obs.install_ring(4);
        let gauge = || obs.registry().gauge_value("obs.events_ring_high_water");
        for i in 0..3 {
            obs.emit(Some(i), EventKind::ClockAdvance { from: i, to: i + 1 });
        }
        // The high-water mark warns of approaching saturation while
        // nothing has been dropped yet.
        assert_eq!(ring.high_water(), 3);
        assert_eq!(gauge(), 3);
        assert_eq!(ring.dropped(), 0);
        for i in 3..8 {
            obs.emit(Some(i), EventKind::ClockAdvance { from: i, to: i + 1 });
        }
        // Saturated: the mark pins at capacity and stays there.
        assert_eq!(ring.high_water(), 4);
        assert_eq!(gauge(), 4);
        assert!(ring.dropped() > 0);
    }

    #[test]
    fn event_renders_lateness() {
        let e = Event {
            seq: 7,
            logical_time: Some(30),
            kind: EventKind::TriggerFired {
                table: "s".into(),
                texp: 10,
                fired_at: 30,
            },
        };
        let s = e.to_string();
        assert!(s.contains("late=20"), "{s}");
    }
}
