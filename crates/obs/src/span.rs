//! Hierarchical tracing spans for the query pipeline.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s. While a guard is alive it
//! is the *current* span; guards opened in its scope become its children,
//! so the engine's natural call structure (parse → plan → rewrite → eval
//! → view refresh; vacuum → trigger) turns into a span tree without any
//! explicit parent plumbing. Each finished span carries an id, a parent
//! link, wall-clock-ns start/duration, and key/value attributes.
//!
//! Finished spans land in two places:
//!
//! * the tracer's own bounded ring (what `\spans` reads), and
//! * the shared [`Obs`] event stream as [`EventKind::SpanClosed`] — the
//!   same sequence numbers and ring as domain events, so `\events` shows
//!   spans interleaved causally with the expirations and refreshes they
//!   caused.
//!
//! Like the event plane, tracing is near-zero-cost when dark: a disabled
//! tracer returns an inert guard after one relaxed `AtomicBool` load and
//! never takes a lock or reads the clock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::events::{EventKind, Obs};
use crate::metrics::Counter;

/// A finished span: one timed node of the trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique within the tracer (ids start at 1 and only grow).
    pub id: u64,
    /// Enclosing span at open time, if any.
    pub parent: Option<u64>,
    /// Operation name, e.g. `query`, `eval`, `storage.expire`.
    pub name: String,
    /// Wall-clock nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Wall-clock nanoseconds since the tracer was created (≥ `start_ns`).
    pub end_ns: u64,
    /// Engine logical-clock reading at close, when known.
    pub logical_time: Option<u64>,
    /// Free-form key/value annotations (`rows=42`, `decision=recompute`).
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct TracerInner {
    enabled: AtomicBool,
    next_id: AtomicU64,
    origin: Instant,
    /// Open-span stack = the current parent chain. The engine is driven
    /// through `&mut` methods, so this sees strictly nested push/pop.
    stack: Mutex<Vec<u64>>,
    ring: Mutex<VecDeque<SpanRecord>>,
    cap: usize,
    dropped: AtomicU64,
    /// `obs.spans_dropped` in the attached registry — ring overwrites
    /// are silent data loss, so they must be visible in every exposition
    /// format, not just via [`Tracer::dropped`].
    drop_counter: Counter,
    obs: Obs,
}

/// Produces spans and retains the most recent finished ones. Cloning
/// shares the tracer (same ids, same ring, same parent stack).
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::detached()
    }
}

/// Default capacity of a tracer's finished-span ring.
pub const SPAN_RING_CAP: usize = 1024;

impl Tracer {
    /// A tracer whose span-close events feed `obs` (shared seq/ring with
    /// domain events). Starts **disabled**; call [`Tracer::enable`].
    pub fn attached(obs: &Obs) -> Self {
        Tracer::with_capacity(obs, SPAN_RING_CAP)
    }

    /// [`Tracer::attached`] with an explicit span-ring capacity.
    pub fn with_capacity(obs: &Obs, cap: usize) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(false),
                next_id: AtomicU64::new(1),
                origin: Instant::now(),
                stack: Mutex::new(Vec::new()),
                ring: Mutex::new(VecDeque::new()),
                cap: cap.max(1),
                dropped: AtomicU64::new(0),
                drop_counter: obs.registry().counter("obs.spans_dropped"),
                obs: obs.clone(),
            }),
        }
    }

    /// A dark tracer with a private, sink-less [`Obs`] — what components
    /// hold before the engine attaches its own (mirrors the detached
    /// counters pattern in storage).
    pub fn detached() -> Self {
        Tracer::attached(&Obs::new())
    }

    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Release);
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span named `name`. Close it by dropping the guard (or
    /// calling [`SpanGuard::finish`]). When the tracer is disabled the
    /// guard is inert and this costs one relaxed load.
    pub fn span(&self, name: &str) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard::inert();
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = {
            let mut stack = self.inner.stack.lock().unwrap();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        };
        SpanGuard {
            tracer: Some(self.clone()),
            id,
            parent,
            name: name.to_string(),
            start_ns: self.now_ns(),
            logical_time: None,
            attrs: Vec::new(),
        }
    }

    /// Nanoseconds since this tracer was created (the span time base).
    pub fn now_ns(&self) -> u64 {
        self.inner
            .origin
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
    }

    /// Records a pre-measured span as a child of `parent` without going
    /// through a guard — the replica session's hop spans, parented on a
    /// span id carried across the link rather than on the open stack.
    /// Returns the new span's id (0 when the tracer is disabled).
    pub fn record_child(
        &self,
        parent: Option<u64>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        logical_time: Option<u64>,
        attrs: Vec<(String, String)>,
    ) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.push_record(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            logical_time,
            attrs,
        });
        id
    }

    /// The most recent `n` finished spans, oldest first (close order).
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let ring = self.inner.ring.lock().unwrap();
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Finished spans evicted by the ring bound since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Number of finished spans currently retained.
    pub fn len(&self) -> usize {
        self.inner.ring.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.ring.lock().unwrap().is_empty()
    }

    pub fn clear(&self) {
        self.inner.ring.lock().unwrap().clear();
    }

    fn push_record(&self, record: SpanRecord) {
        self.inner
            .obs
            .emit_with(record.logical_time, || EventKind::SpanClosed {
                name: record.name.clone(),
                id: record.id,
                parent: record.parent,
                duration_ns: record.duration_ns(),
            });
        let mut ring = self.inner.ring.lock().unwrap();
        if ring.len() == self.inner.cap {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            self.inner.drop_counter.inc();
        }
        ring.push_back(record);
    }

    fn close(&self, guard: &mut SpanGuard) {
        {
            let mut stack = self.inner.stack.lock().unwrap();
            if let Some(pos) = stack.iter().rposition(|&id| id == guard.id) {
                stack.truncate(pos);
            }
        }
        self.push_record(SpanRecord {
            id: guard.id,
            parent: guard.parent,
            name: std::mem::take(&mut guard.name),
            start_ns: guard.start_ns,
            end_ns: self.now_ns().max(guard.start_ns),
            logical_time: guard.logical_time,
            attrs: std::mem::take(&mut guard.attrs),
        });
    }
}

/// An open span. Dropping it closes the span and records it; attributes
/// added on an inert guard (disabled tracer) vanish for free.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    tracer: Option<Tracer>,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    logical_time: Option<u64>,
    attrs: Vec<(String, String)>,
}

impl SpanGuard {
    fn inert() -> Self {
        SpanGuard {
            tracer: None,
            id: 0,
            parent: None,
            name: String::new(),
            start_ns: 0,
            logical_time: None,
            attrs: Vec::new(),
        }
    }

    /// This span's id, if recording (0 otherwise).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Adds a key/value attribute. No-op on an inert guard.
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if self.tracer.is_some() {
            self.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Stamps the engine's logical clock onto the span.
    pub fn at(&mut self, logical_time: u64) {
        if self.tracer.is_some() {
            self.logical_time = Some(logical_time);
        }
    }

    /// Closes the span now (equivalent to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer.take() {
            tracer.close(self);
        }
    }
}

/// Renders `spans` (close order, as returned by [`Tracer::recent`]) as an
/// indented tree. Spans whose parent is outside the slice print as roots.
pub fn render_span_tree(spans: &[SpanRecord]) -> String {
    use std::collections::BTreeMap;
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        match s.parent.filter(|p| by_id.contains_key(p)) {
            Some(p) => children.entry(p).or_default().push(s),
            None => roots.push(s),
        }
    }
    // Roots in start order; children already start-ordered per parent
    // because ids grow monotonically with open time.
    roots.sort_by_key(|s| (s.start_ns, s.id));
    for kids in children.values_mut() {
        kids.sort_by_key(|s| (s.start_ns, s.id));
    }
    let mut out = String::new();
    fn walk(
        s: &SpanRecord,
        depth: usize,
        children: &std::collections::BTreeMap<u64, Vec<&SpanRecord>>,
        out: &mut String,
    ) {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth);
        let _ = write!(out, "{indent}{} [{}ns]", s.name, s.duration_ns());
        if let Some(t) = s.logical_time {
            let _ = write!(out, " t={t}");
        }
        for (k, v) in &s.attrs {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for kid in children.get(&s.id).map_or(&[][..], |v| v.as_slice()) {
            walk(kid, depth + 1, children, out);
        }
    }
    for root in roots {
        walk(root, 0, &children, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::detached();
        {
            let mut sp = tracer.span("query");
            sp.attr("rows", 7);
        }
        assert!(tracer.is_empty());
        assert_eq!(tracer.record_child(None, "x", 0, 1, None, vec![]), 0);
    }

    #[test]
    fn nesting_follows_scope() {
        let tracer = Tracer::detached();
        tracer.enable();
        {
            let outer = tracer.span("outer");
            {
                let _inner = tracer.span("inner");
            }
            {
                let _sibling = tracer.span("sibling");
            }
            drop(outer); // explicit for clarity; scope end would do the same
        }
        let spans = tracer.recent(10);
        assert_eq!(spans.len(), 3);
        // Close order: inner, sibling, outer.
        let inner = &spans[0];
        let sibling = &spans[1];
        let outer = &spans[2];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        // Containment.
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn spans_interleave_with_events_in_one_ring() {
        let obs = Obs::new();
        let ring = obs.install_ring(16);
        let tracer = Tracer::attached(&obs);
        tracer.enable();
        obs.emit(Some(1), EventKind::ClockAdvance { from: 0, to: 1 });
        {
            let mut sp = tracer.span("tick");
            sp.at(1);
        }
        obs.emit(Some(1), EventKind::VacuumPass { at: 1, removed: 0 });
        let events = ring.recent(10);
        let tags: Vec<&str> = events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags, vec!["clock_advance", "span_closed", "vacuum_pass"]);
        // Shared seq counter → strictly increasing across both planes.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn ring_bound_drops_oldest_span() {
        let tracer = Tracer::with_capacity(&Obs::new(), 2);
        tracer.enable();
        for i in 0..4 {
            let mut sp = tracer.span("s");
            sp.attr("i", i);
        }
        assert_eq!(tracer.len(), 2);
        assert_eq!(tracer.dropped(), 2);
        let spans = tracer.recent(10);
        assert_eq!(spans[0].attrs, vec![("i".to_string(), "2".to_string())]);
    }

    #[test]
    fn record_child_grafts_subtree() {
        let tracer = Tracer::detached();
        tracer.enable();
        let (root_id, t0) = {
            let sp = tracer.span("eval");
            (sp.id(), tracer.now_ns())
        };
        let t1 = t0 + 10;
        let child = tracer.record_child(Some(root_id), "σ[texp>now]", t0, t1, Some(5), vec![]);
        assert!(child > 0);
        let spans = tracer.recent(10);
        let grafted = spans.iter().find(|s| s.id == child).unwrap();
        assert_eq!(grafted.parent, Some(root_id));
        assert_eq!(grafted.duration_ns(), 10);
        assert_eq!(grafted.logical_time, Some(5));
    }

    #[test]
    fn render_tree_indents_children() {
        let tracer = Tracer::detached();
        tracer.enable();
        {
            let _q = tracer.span("query");
            let _e = tracer.span("eval");
        }
        let text = render_span_tree(&tracer.recent(10));
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("query ["), "{text}");
        assert!(lines[1].starts_with("  eval ["), "{text}");
    }
}
