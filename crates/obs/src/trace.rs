//! Cross-node trace propagation: a minimal trace context carried inside
//! replica session frames.
//!
//! One logical operation — a refresh push that gets lost, retransmitted,
//! and finally repaired by anti-entropy — spans two endpoints and many
//! messages. A [`TraceContext`] (trace id + parent span id) rides in
//! each frame so every hop records its span *under the sender's span*,
//! and the whole operation renders as a single causal tree in the span
//! ring, whichever side of the link each span was recorded on.
//!
//! The context is deliberately tiny and copyable: two `u64`s, the moral
//! equivalent of a W3C `traceparent` header for a protocol whose frames
//! are Rust enums instead of HTTP requests. `trace_id = 0` means
//! "unsampled": hops propagate the context untouched and record nothing,
//! which is also the compatibility story for peers that predate tracing
//! — they can carry [`TraceContext::NONE`] and interoperate.
//!
//! [`trace_root`] opens a trace for one logical operation and
//! [`record_hop`] records each hop of it; both protocol endpoints that
//! carry contexts (the replica's sync sessions and the delete-push
//! baseline's notices) record through these two.

use crate::span::Tracer;

/// A propagated trace position: which trace, and which span to parent
/// the next hop under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceContext {
    /// Trace identifier shared by every span of the logical operation.
    /// Zero means unsampled.
    pub trace_id: u64,
    /// Span id of the hop that produced the frame carrying this context.
    pub parent_span: u64,
}

impl TraceContext {
    /// The unsampled context: carried by frames when tracing is off.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        parent_span: 0,
    };

    /// A context rooted at `parent_span` inside `trace_id`.
    #[must_use]
    pub fn new(trace_id: u64, parent_span: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span,
        }
    }

    /// Whether hops should record spans for this trace.
    #[must_use]
    pub fn is_sampled(&self) -> bool {
        self.trace_id != 0
    }

    /// The context the *next* frame should carry after this hop recorded
    /// `span_id`: same trace, re-parented under the hop.
    #[must_use]
    pub fn hop(&self, span_id: u64) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: span_id,
        }
    }
}

impl std::fmt::Display for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_sampled() {
            write!(f, "trace={:#x} parent={}", self.trace_id, self.parent_span)
        } else {
            f.write_str("trace=-")
        }
    }
}

/// Records one traced hop on `tracer`: a zero-duration span named
/// `<endpoint>.<label>` under the context's parent span, returning the
/// context the *next* frame should carry. Unsampled contexts pass through
/// untouched (and record nothing, the name is never built) — the
/// interoperability path.
pub fn record_hop(
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
pub fn trace_root(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsampled_context_is_inert_and_displays_as_dash() {
        let none = TraceContext::NONE;
        assert!(!none.is_sampled());
        assert_eq!(none, TraceContext::default());
        assert_eq!(none.to_string(), "trace=-");
        // Hopping an unsampled context keeps it unsampled.
        assert!(!none.hop(42).is_sampled());
    }

    #[test]
    fn hops_keep_the_trace_and_reparent() {
        let root = TraceContext::new(7, 100);
        assert!(root.is_sampled());
        let next = root.hop(200);
        assert_eq!(next.trace_id, 7);
        assert_eq!(next.parent_span, 200);
        assert!(root.to_string().contains("trace=0x7"), "{root}");
    }
}
