//! # exptime-obs — observability core
//!
//! Zero-external-dependency metrics and event tracing for the expiration
//! engine. The paper's central claims are about *avoided work* (Theorems
//! 1–3: validity hits and patch hits instead of recomputation; eager vs.
//! lazy removal trading trigger punctuality for throughput) — this crate
//! is how the rest of the stack makes that work visible.
//!
//! Two planes, deliberately separate:
//!
//! * **Metrics** ([`MetricsRegistry`]): named atomic counters, gauges,
//!   and log₂-bucket histograms. Always on; the hot-path cost of a held
//!   [`Counter`] handle is one relaxed atomic add. Snapshots export to
//!   JSON via [`MetricsRegistry::snapshot_json`] with no serde.
//! * **Events** ([`Obs`] + [`EventSink`]): structured expiration-domain
//!   happenings (tuple expired, trigger fired, vacuum pass, refresh
//!   decision, rewrite, replica message). Near-zero cost when no sink is
//!   installed: one relaxed `AtomicBool` load, and event payloads are
//!   built inside [`Obs::emit_with`] closures so they are never even
//!   constructed unless a sink is listening.
//!
//! Naming scheme for metrics: `<subsystem>.<noun>[.<detail>]`, e.g.
//! `db.inserts`, `view.hot.patches_applied`, `expiry.heap.pops`,
//! `eval.select.rows_out`. Dots only; no units in names — histograms are
//! nanoseconds unless suffixed otherwise.

#![forbid(unsafe_code)]

mod events;
mod expose;
mod forecast;
mod json;
mod metrics;
mod monitor;
mod profile;
mod span;
mod trace;

pub use events::{Event, EventKind, EventSink, Obs, RefreshDecision, RingSink, StderrSink};
pub use expose::{expose_json, expose_prometheus, parse_prometheus_text, Sample};
pub use forecast::{HorizonForecast, StormBucket, FORECAST_BUCKETS};
pub use json::JsonValue;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use monitor::{
    Health, HealthStatus, SloConfig, StalenessBound, StalenessMonitor, ViewHealth, BOUND_UNBOUNDED,
    TTX_ETERNAL,
};
pub use profile::{fold_spans, render_flame, FoldedStack};
pub use span::{render_span_tree, SpanGuard, SpanRecord, Tracer, SPAN_RING_CAP};
pub use trace::{record_hop, trace_root, TraceContext};
