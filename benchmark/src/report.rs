//! Metric definitions and the reporter that folds a run's recorders and
//! spans into them.

use crate::harness::Recorder;
use crate::stats::{mean, median, self_times, Span};
use std::collections::HashMap;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for a plain count or ratio).
    pub n: u64,
}

/// `(name, unit, better, bound)` — the end-to-end metrics the driver
/// gates. Every workload reports every one of them with enough samples;
/// metrics that apply to some workloads only are the `e2e.*` entries of
/// [`PER_LAYER`].
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("stmt_per_s", "1/s", "higher", 0.25),
    ("read_p50_us", "us", "lower", 0.25),
    ("write_p50_us", "us", "lower", 0.25),
    ("advance_p50_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str, &str); 94] = [
    // End-to-end metrics that only some workloads can supply (0 where
    // a workload has no samples, or too few for the percentile).
    ("e2e.raw_setup_s", "s", "lower"),
    ("e2e.raw_stmt_per_s", "1/s", "higher"),
    ("e2e.raw_read_p50_us", "us", "lower"),
    ("e2e.raw_write_p50_us", "us", "lower"),
    ("e2e.raw_advance_p50_us", "us", "lower"),
    ("e2e.read_p99_us", "us", "lower"),
    ("e2e.write_p99_us", "us", "lower"),
    ("e2e.advance_p99_us", "us", "lower"),
    ("e2e.recovery_ms", "ms", "lower"),
    ("e2e.wal_bytes_per_write", "B", "lower"),
    ("e2e.msgs_per_read", "count", "lower"),
    ("e2e.recompute_per_read", "count", "lower"),
    ("e2e.failed_ratio", "ratio", "lower"),
    ("net.roundtrip_floor_us", "us", "lower"),
    ("net.overhead_us", "us", "lower"),
    ("net.server_stmt_p50_us", "us", "lower"),
    ("net.encode_stmt_ns", "ns", "lower"),
    ("net.decode_stmt_ns", "ns", "lower"),
    ("net.encode_reply_ns", "ns", "lower"),
    ("net.decode_reply_ns", "ns", "lower"),
    ("net.reply_bytes", "B", "lower"),
    ("net.shed", "count", "lower"),
    ("net.retries", "count", "lower"),
    ("net.replayed", "count", "lower"),
    ("net.degraded_served", "count", "lower"),
    ("net.deadline_exceeded", "count", "lower"),
    ("engine.execute_read_us", "us", "lower"),
    ("engine.execute_write_us", "us", "lower"),
    ("engine.snapshot_us", "us", "lower"),
    ("engine.snapshot_rows", "count", "lower"),
    ("engine.rows_cloned_per_row_out", "count", "lower"),
    ("engine.other_us", "us", "lower"),
    ("engine.attributed_share", "ratio", "higher"),
    ("engine.lock_probe_us", "us", "lower"),
    ("engine.advance_us", "us", "lower"),
    ("engine.expired_per_advance", "count", "lower"),
    ("engine.checkpoint_ms", "ms", "lower"),
    ("engine.checkpoints", "count", "lower"),
    ("engine.recovery_replayed", "count", "lower"),
    ("engine.recovery_skipped_expired", "count", "higher"),
    ("sql.parse_read_ns", "ns", "lower"),
    ("sql.parse_write_ns", "ns", "lower"),
    ("sql.plan_ns", "ns", "lower"),
    ("sql.stmt_bytes", "B", "lower"),
    ("core.eval_point_us", "us", "lower"),
    ("core.eval_range_us", "us", "lower"),
    ("core.eval_join_us", "us", "lower"),
    ("core.eval_agg_us", "us", "lower"),
    ("core.eval_diff_us", "us", "lower"),
    ("core.eval_view_us", "us", "lower"),
    ("core.rows_in_per_row_out", "count", "lower"),
    ("core.view_read_fresh_us", "us", "lower"),
    ("core.view_refresh_us", "us", "lower"),
    ("core.view_patches_applied", "count", "lower"),
    ("core.view_local_ratio", "ratio", "higher"),
    ("storage.insert_ns", "ns", "lower"),
    ("storage.expire_due_us", "us", "lower"),
    ("storage.expired_per_call", "count", "lower"),
    ("storage.to_relation_us", "us", "lower"),
    ("storage.scan_ns_per_row", "ns", "lower"),
    ("storage.select_eq_ns", "ns", "lower"),
    ("storage.update_texp_ns", "ns", "lower"),
    ("storage.rows_live", "count", "lower"),
    ("storage.rows_stored", "count", "lower"),
    ("policy.effective_texp_ns", "ns", "lower"),
    ("policy.touches_per_read", "count", "lower"),
    ("policy.clamped", "count", "lower"),
    ("wal.bytes_per_stmt", "B", "lower"),
    ("wal.records_per_stmt", "count", "lower"),
    ("wal.fsyncs_per_stmt", "count", "lower"),
    ("wal.encode_ns", "ns", "lower"),
    ("wal.decode_ns", "ns", "lower"),
    ("wal.append_ns", "ns", "lower"),
    ("wal.scan_log_ms", "ms", "lower"),
    ("wal.replay_plan_ms", "ms", "lower"),
    ("wal.apply_ms", "ms", "lower"),
    ("wal.log_bytes_at_crash", "B", "lower"),
    ("wal.checkpoint_bytes", "B", "lower"),
    ("obs.span_ns", "ns", "lower"),
    ("obs.counter_inc_ns", "ns", "lower"),
    ("obs.event_emit_ns", "ns", "lower"),
    ("obs.events_dropped", "count", "lower"),
    ("obs.spans_dropped", "count", "lower"),
    ("replica.read_local_us", "us", "lower"),
    ("replica.read_refreshed_us", "us", "lower"),
    ("replica.local_ratio", "ratio", "higher"),
    ("replica.tuples_per_read", "count", "lower"),
    ("replica.subscribe_ms", "ms", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.kernel_us", "us", "lower"),
    ("bench.kernel_ref_us", "us", "lower"),
    ("bench.samples_read", "count", "higher"),
    ("bench.samples_write", "count", "higher"),
    ("bench.samples_advance", "count", "higher"),
];

/// Operations per second of window, raw.
fn raw_stmt_per_s(rec: &Recorder) -> f64 {
    rec.ops() as f64 / (rec.busy_ns.max(1) as f64 / 1e9)
}

/// Operations per second of window, at reference speed.
fn stmt_per_s(rec: &Recorder) -> f64 {
    rec.ops() as f64 / (rec.busy_ref / 1e9)
}

/// The gated end-to-end metrics of an untraced run. `Err` names a metric
/// the run has too few samples for: that is a broken benchmark, not a 0.
pub fn end_to_end(rec: &Recorder, setup_s: f64) -> Result<Vec<Metric>, String> {
    // The p50 at reference speed of class `i`, in µs.
    let p50 = |i: usize| {
        let name = END_TO_END[2 + i].0;
        rec.at_ref[i]
            .p50()
            .map(|ns| (ns / 1e3, rec.at_ref[i].n()))
            .ok_or(format!("too few samples for {name}"))
    };
    let values = [
        (setup_s, 0),
        (stmt_per_s(rec), rec.ops()),
        p50(0)?,
        p50(1)?,
        p50(2)?,
        (rec.rss_mb, 0),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, ..), (value, n))| Metric {
            name,
            value,
            unit,
            n,
        })
        .collect())
}

/// Span durations by name, in ns.
fn durations(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.duration() as f64);
    }
    by_name
}

/// Per operation with a probe span named `probe`: the share of the op's
/// time the probe's child spans cover, and the remainder in µs.
fn attribution(spans: &[Span], probe: &str) -> (Vec<f64>, Vec<f64>) {
    let own = self_times(spans);
    let ops: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name.starts_with("op."))
        .map(|s| (s.op_id, s.duration()))
        .collect();
    let (mut share, mut other) = (Vec::new(), Vec::new());
    for p in spans.iter().filter(|s| s.name == probe) {
        let Some(&op_ns) = ops.get(&p.op_id) else {
            continue;
        };
        let attributed = (p.duration() - own[&p.id]) as f64;
        share.push(attributed / op_ns.max(1) as f64);
        other.push((op_ns as f64 - attributed) / 1e3);
    }
    (share, other)
}

/// Collects per-layer metrics in declaration order.
struct Fold<'a> {
    a: &'a Recorder,
    b: &'a Recorder,
    dur: HashMap<&'static str, Vec<f64>>,
    out: Vec<Metric>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A value under its declared per-layer name and unit.
fn metric(name: &str, value: f64, n: u64) -> Metric {
    let &(name, unit, _) = PER_LAYER
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        n,
    }
}

/// The end-to-end metrics only some workloads can supply, from an
/// untraced recording: the suite takes them from its full-length untraced
/// run, the driver from pass A of the traced run.
pub fn partial_end_to_end(a: &Recorder) -> Vec<Metric> {
    let count = |name: &str| a.counts.get(name).copied().unwrap_or(0.0);
    let [read, write, advance] = &a.raw;
    let writes = write.n() as f64;
    vec![
        metric("e2e.raw_setup_s", count("setup_s"), 0),
        metric("e2e.raw_stmt_per_s", raw_stmt_per_s(a), a.ops()),
        metric("e2e.raw_read_p50_us", us(read.p50()), read.n()),
        metric("e2e.raw_write_p50_us", us(write.p50()), write.n()),
        metric("e2e.raw_advance_p50_us", us(advance.p50()), advance.n()),
        metric("e2e.read_p99_us", us(read.p99()), read.n()),
        metric("e2e.write_p99_us", us(write.p99()), write.n()),
        metric("e2e.advance_p99_us", us(advance.p99()), advance.n()),
        metric("e2e.recovery_ms", count("recovery_ms"), 0),
        metric(
            "e2e.wal_bytes_per_write",
            ratio(count("wal.bytes"), writes),
            0,
        ),
        metric(
            "e2e.msgs_per_read",
            ratio(count("replica.messages"), count("replica.reads")),
            0,
        ),
        metric(
            "e2e.recompute_per_read",
            ratio(count("view.recomputations"), count("view.reads")),
            0,
        ),
        metric(
            "e2e.failed_ratio",
            ratio(a.failed as f64, a.attempted as f64),
            a.attempted,
        ),
    ]
}

/// What the reference kernel took during a recording, typically and in
/// its quietest twentieth: `KERNEL_NOMINAL_US ÷ typical` is about what the
/// run's timings at reference speed are of its raw ones.
pub fn kernel_metrics(rec: &Recorder) -> [Metric; 2] {
    let typical = median(&mut rec.kernel.clone());
    [
        metric("bench.kernel_us", typical, rec.kernel.len() as u64),
        metric("bench.kernel_ref_us", rec.kernel_quiet(), 0),
    ]
}

impl Fold<'_> {
    fn put(&mut self, name: &str, value: f64, n: u64) {
        self.out.push(metric(name, value, n));
    }

    /// The median duration of the spans named `key`, in units of `per` ns.
    fn span(&mut self, name: &str, key: &str, per: f64) {
        let mut v = self.dur.get(key).cloned().unwrap_or_default();
        self.put(name, median(&mut v) / per, v.len() as u64);
    }

    fn series(&self, key: &str) -> Vec<f64> {
        self.b.series.get(key).cloned().unwrap_or_default()
    }

    fn series_median(&mut self, name: &str) {
        let mut v = self.series(name);
        self.put(name, median(&mut v), v.len() as u64);
    }

    fn series_mean(&mut self, name: &str) {
        let v = self.series(name);
        self.put(name, mean(&v), v.len() as u64);
    }

    /// A count from the untraced pass.
    fn count(&self, name: &str) -> f64 {
        self.a.counts.get(name).copied().unwrap_or(0.0)
    }

    /// A count only the traced pass takes.
    fn count_b(&self, name: &str) -> f64 {
        self.b.counts.get(name).copied().unwrap_or(0.0)
    }
}

fn us(ns: Option<f64>) -> f64 {
    ns.map_or(0.0, |v| v / 1e3)
}

/// Every per-layer metric from the two passes of a traced run: `a` ran
/// untraced and supplies the counts, `b` ran traced and supplies the span
/// timings. A metric whose layer the workload does not exercise reads 0.
pub fn per_layer(a: &Recorder, b: &Recorder) -> Vec<Metric> {
    let empty = Vec::new();
    let spans = b.trace.as_ref().map_or(&empty, |t| &t.spans);
    // Reads explain themselves through parse, plan, snapshot and eval; a
    // workload without probed reads falls back to its write probes.
    let (mut share, mut other) = attribution(spans, "probe.read");
    if share.is_empty() {
        (share, other) = attribution(spans, "probe.write");
    }
    let mut f = Fold {
        a,
        b,
        dur: durations(spans),
        out: partial_end_to_end(a),
    };
    let [reads, writes, advances] = [0, 1, 2].map(|i| a.raw[i].n() as f64);
    let ops = reads + writes + advances;

    f.span("net.roundtrip_floor_us", "net.roundtrip_floor", 1e3);
    // Only the wire workload re-drives its statements in-process, as spans
    // of their own; there the op itself is the wire round trip.
    let wire = f.dur.contains_key("engine.execute_read");
    let span_of = |key: &str| f.dur.get(key).cloned().unwrap_or_default();
    let mut on_wire = if wire { span_of("op.read") } else { Vec::new() };
    let mut in_process = span_of("engine.execute_read");
    f.put(
        "net.overhead_us",
        (median(&mut on_wire) - median(&mut in_process)) / 1e3,
        in_process.len() as u64,
    );
    f.put(
        "net.server_stmt_p50_us",
        f.count("net.server_stmt_p50_us"),
        0,
    );
    f.span("net.encode_stmt_ns", "net.encode_stmt", 1.0);
    f.span("net.decode_stmt_ns", "net.decode_stmt", 1.0);
    f.span("net.encode_reply_ns", "net.encode_reply", 1.0);
    f.span("net.decode_reply_ns", "net.decode_reply", 1.0);
    f.series_mean("net.reply_bytes");
    for name in [
        "net.shed",
        "net.retries",
        "net.replayed",
        "net.degraded_served",
        "net.deadline_exceeded",
    ] {
        f.put(name, f.count(name), 0);
    }

    // An embedded workload's operations are `Database::execute` itself
    // (raw `op.*` spans).
    f.span(
        "engine.execute_read_us",
        if wire {
            "engine.execute_read"
        } else {
            "op.read"
        },
        1e3,
    );
    f.span(
        "engine.execute_write_us",
        if wire {
            "engine.execute_write"
        } else {
            "op.write"
        },
        1e3,
    );
    f.span("engine.snapshot_us", "engine.snapshot", 1e3);
    f.series_median("engine.snapshot_rows");
    f.series_median("engine.rows_cloned_per_row_out");
    f.put("engine.other_us", median(&mut other), other.len() as u64);
    f.put(
        "engine.attributed_share",
        median(&mut share),
        share.len() as u64,
    );
    f.span("engine.lock_probe_us", "engine.lock_probe", 1e3);
    f.span("engine.advance_us", "op.advance", 1e3);
    f.put(
        "engine.expired_per_advance",
        ratio(f.count("engine.expired"), advances),
        0,
    );
    // A checkpoint's cost is what a checkpointing tick takes beyond a
    // plain one.
    let mut ckpt = f.series("engine.checkpoint_tick_ms");
    let plain_ms = median(&mut f.dur.get("op.advance").cloned().unwrap_or_default()) / 1e6;
    let ckpt_ms = if ckpt.is_empty() {
        0.0
    } else {
        median(&mut ckpt) - plain_ms
    };
    f.put("engine.checkpoint_ms", ckpt_ms, ckpt.len() as u64);
    f.put("engine.checkpoints", f.count("engine.checkpoints"), 0);
    f.put(
        "engine.recovery_replayed",
        f.count("engine.recovery_replayed"),
        0,
    );
    f.put(
        "engine.recovery_skipped_expired",
        f.count("engine.recovery_skipped_expired"),
        0,
    );

    f.span("sql.parse_read_ns", "sql.parse_read", 1.0);
    f.span("sql.parse_write_ns", "sql.parse_write", 1.0);
    f.span("sql.plan_ns", "sql.plan", 1.0);
    f.series_mean("sql.stmt_bytes");

    for (name, key) in [
        ("core.eval_point_us", "core.eval_point"),
        ("core.eval_range_us", "core.eval_range"),
        ("core.eval_join_us", "core.eval_join"),
        ("core.eval_agg_us", "core.eval_agg"),
        ("core.eval_diff_us", "core.eval_diff"),
        ("core.eval_view_us", "core.eval_view"),
    ] {
        f.span(name, key, 1e3);
    }
    f.series_median("core.rows_in_per_row_out");
    f.span("core.view_read_fresh_us", "core.view_read_fresh", 1e3);
    f.span("core.view_refresh_us", "core.view_refresh", 1e3);
    f.put(
        "core.view_patches_applied",
        f.count("view.patches_applied"),
        0,
    );
    f.put(
        "core.view_local_ratio",
        ratio(f.count("view.local_reads"), f.count("view.reads")),
        0,
    );

    f.span("storage.insert_ns", "storage.insert", 1.0);
    f.span("storage.expire_due_us", "storage.expire_due", 1e3);
    f.series_mean("storage.expired_per_call");
    f.span("storage.to_relation_us", "storage.to_relation", 1e3);
    f.series_median("storage.scan_ns_per_row");
    f.span("storage.select_eq_ns", "storage.select_eq", 1.0);
    f.span("storage.update_texp_ns", "storage.update_texp", 1.0);
    f.series_median("storage.rows_live");
    f.series_median("storage.rows_stored");

    f.span("policy.effective_texp_ns", "policy.effective_texp", 1.0);
    f.put(
        "policy.touches_per_read",
        ratio(f.count("policy.touches"), reads),
        0,
    );
    f.put("policy.clamped", f.count("policy.clamped"), 0);

    f.put("wal.bytes_per_stmt", ratio(f.count("wal.bytes"), ops), 0);
    f.put(
        "wal.records_per_stmt",
        ratio(f.count("wal.records"), ops),
        0,
    );
    f.put("wal.fsyncs_per_stmt", ratio(f.count("wal.fsyncs"), ops), 0);
    f.span("wal.encode_ns", "wal.encode", 1.0);
    f.span("wal.decode_ns", "wal.decode", 1.0);
    f.span("wal.append_ns", "wal.append", 1.0);
    let (scan, plan) = (
        f.count_b("wal.scan_log_ms"),
        f.count_b("wal.replay_plan_ms"),
    );
    f.put("wal.scan_log_ms", scan, 0);
    f.put("wal.replay_plan_ms", plan, 0);
    let recovery = f.count_b("recovery_ms");
    let apply = if recovery > 0.0 {
        recovery - scan - plan
    } else {
        0.0
    };
    f.put("wal.apply_ms", apply, 0);
    f.put(
        "wal.log_bytes_at_crash",
        f.count("wal.log_bytes_at_crash"),
        0,
    );
    f.put("wal.checkpoint_bytes", f.count("wal.checkpoint_bytes"), 0);

    f.series_mean("obs.span_ns");
    f.series_mean("obs.counter_inc_ns");
    f.series_mean("obs.event_emit_ns");
    f.put("obs.events_dropped", f.count_b("obs.events_dropped"), 0);
    f.put("obs.spans_dropped", f.count_b("obs.spans_dropped"), 0);

    f.span("replica.read_local_us", "replica.read_local", 1e3);
    f.span("replica.read_refreshed_us", "replica.read_refreshed", 1e3);
    f.put(
        "replica.local_ratio",
        ratio(f.count("replica.local"), f.count("replica.reads")),
        0,
    );
    f.put(
        "replica.tuples_per_read",
        ratio(f.count("replica.tuples"), f.count("replica.reads")),
        0,
    );
    let mut subscribe = a
        .series
        .get("replica.subscribe_ms")
        .cloned()
        .unwrap_or_default();
    f.put(
        "replica.subscribe_ms",
        median(&mut subscribe),
        subscribe.len() as u64,
    );

    let lost = if ops > 0.0 {
        1.0 - ratio(stmt_per_s(b), stmt_per_s(a))
    } else {
        0.0
    };
    f.put("bench.trace_overhead_pct", 100.0 * lost, 0);
    f.out.extend(kernel_metrics(a));
    f.put("bench.samples_read", reads, 0);
    f.put("bench.samples_write", writes, 0);
    f.put("bench.samples_advance", advances, 0);
    f.out
}

/// The contract's result object, one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// The text of `BENCHMARK.json`, generated from the tables above so the
/// file and the program cannot disagree.
pub fn benchmark_json() -> String {
    let workloads = crate::WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let e2e = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let layers = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{e2e}\n  ],\n  \
         \"per_layer\": [\n{layers}\n  ]\n}}\n",
        crate::RUN_SECONDS
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_text() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with run.sh --print-benchmark-json"
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(crate::WORKLOADS.iter().map(|w| w.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(crate::WORKLOADS.iter().all(|w| w.1.len() <= 200));
    }

    #[test]
    fn per_layer_reports_every_declared_metric_once() {
        let out = per_layer(&Recorder::new(None), &Recorder::new(None));
        let got: Vec<&str> = out.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(got, want);
        assert!(out.iter().all(|m| m.value == 0.0));
    }

    #[test]
    fn attribution_uses_the_probe_children() {
        let s = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            op_id: 1,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            s(1, 0, "op.read", 0, 1000),
            s(2, 0, "probe.read", 1000, 2000),
            s(3, 2, "sql.parse_read", 1000, 1100),
            s(4, 2, "engine.snapshot", 1100, 1800),
        ];
        let (share, other) = attribution(&spans, "probe.read");
        assert_eq!(share, vec![0.8]);
        assert_eq!(other, vec![0.2]);
    }
}
