//! What every workload shares: the recorder that times operations, the
//! layer probes of the traced run, and the shadow table / shadow WAL the
//! write-side probes drive.

use crate::gen::{Kind, Op, Shape};
use crate::stats::Hist;
use crate::trace::Trace;
use exptime_core::algebra::{eval, EvalOptions, Expr};
use exptime_core::schema::{Attribute, Schema};
use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use exptime_core::value::{Value, ValueType};
use exptime_engine::{Database, TtlPolicy};
use exptime_policy::Event as PolicyEvent;
use exptime_sql::{parse, plan_query, SchemaProvider, SqlError, Statement};
use exptime_storage::{IndexKind, Table};
use exptime_wal::{decode_frame, encode_frame, MemStore, Wal, WalRecord, WalStore};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The end-to-end latency classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Advance,
}

impl From<Kind> for Class {
    fn from(k: Kind) -> Class {
        match k {
            Kind::Read => Class::Read,
            Kind::Write => Class::Write,
        }
    }
}

/// A traced operation chosen for layer probes.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub op_id: u64,
    pub start: Instant,
    pub ns: u64,
}

/// Times operations and collects everything a run reports.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Client-observed latencies by class in ns, raw and at reference speed.
    pub raw: [Hist; 3],
    pub at_ref: [Hist; 3],
    /// Time inside timed operations: the closed loop's window, the time its
    /// one client spent waiting for the program, with the harness's own
    /// generating and checking left out. Raw nanoseconds, and the same at
    /// reference speed.
    pub busy_ns: u64,
    pub busy_ref: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Named counts (registry deltas and the like) for per-layer metrics.
    pub counts: BTreeMap<&'static str, f64>,
    /// Named sample series that are not span durations (row counts, bytes).
    pub series: BTreeMap<&'static str, Vec<f64>>,
    pub trace: Option<Trace>,
    /// One operation in this many gets layer probes, per class
    /// (read, write, advance); deterministic, by operation number.
    pub sample_every: [u64; 3],
    /// `VmHWM` is read after every round up to this one — a fixed amount
    /// of work, so the memory metric does not grow with how many rounds a
    /// faster engine fits into the same seconds.
    pub rss_round: u64,
    pub rss_mb: f64,
    seen: [u64; 3],
    next_op: u64,
    /// Every reference-kernel timing of this recording, in µs.
    pub kernel: Vec<f64>,
    /// The kernel is timed between operations once this moment has passed.
    kernel_due: Option<Instant>,
    /// What the kernel takes right now: the median of its last few
    /// timings, in µs. 0 until the first one.
    kernel_us: f64,
}

/// Kernel timings the current speed is the median of (250 ms at the
/// kernel's cadence): one timing alone is ±10 % noisy.
const KERNEL_SMOOTH: usize = 5;
/// The kernel is timed between operations at this cadence.
const KERNEL_EVERY: Duration = Duration::from_millis(50);
/// Reference speed is the speed at which the kernel takes this many µs —
/// about what it takes on this class of machine when the host is quiet. It
/// only fixes the scale of the timings at reference speed: two commits
/// measured on one machine are divided by the same number.
pub const KERNEL_NOMINAL_US: f64 = 500.0;

/// The reference kernel: allocate, clone and hash 4 000 small rows — the
/// memory-system mix of the engine's own hot paths, in harness-only code.
///
/// This host's speed on such code swings by up to 1.8 × for minutes to an
/// hour at a time (busy neighbours; arithmetic in registers barely moves),
/// so raw timings of identical runs spread by 10–40 % and no bound within
/// the driver's 25 % holds them. The kernel is timed throughout a run, in
/// the same thread as the operations, and each gated timing is reported
/// *at reference speed*: divided by what the kernel took around that moment
/// and multiplied by [`KERNEL_NOMINAL_US`]. A change that slows every
/// allocation in the process would slow the kernel too and be hidden to
/// that extent; the raw values are reported beside the gated ones as
/// `e2e.raw_*` for that reason.
/// Returns µs.
pub fn time_kernel() -> f64 {
    use std::collections::HashMap;
    let start = Instant::now();
    let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut out = Vec::with_capacity(4000);
    for i in 0..4000u64 {
        let row = vec![i % 200, i, i * 7 % 1000];
        out.push(row.clone());
        index.insert(row, i as usize);
    }
    black_box((index.len(), out.len()));
    start.elapsed().as_nanos() as f64 / 1e3
}

impl Recorder {
    pub fn new(trace: Option<Trace>) -> Recorder {
        Recorder {
            trace,
            sample_every: [8, 8, 1],
            ..Recorder::default()
        }
    }

    /// Operations recorded, of all three classes.
    pub fn ops(&self) -> u64 {
        self.raw.iter().map(Hist::n).sum()
    }

    /// Times the real top-level call and records it raw and at reference
    /// speed. In a traced run a deterministic one-in-N of each class is
    /// also recorded as span `op.<class>` and returned for probing.
    pub fn op<T>(&mut self, class: Class, f: impl FnOnce() -> T) -> (T, Option<Sample>) {
        if self.kernel_due.is_none() {
            self.time_kernel();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let i = class as usize;
        let scaled = self.scaled(ns);
        self.raw[i].record(ns);
        self.at_ref[i].record(scaled as u64);
        self.busy_ns += ns;
        self.busy_ref += scaled;
        self.attempted += 1;
        if self.kernel_due.is_some_and(|due| start >= due) {
            self.time_kernel();
        }
        self.seen[i] += 1;
        let sample = match &mut self.trace {
            Some(trace) if self.seen[i].is_multiple_of(self.sample_every[i]) => {
                self.next_op += 1;
                let op_id = self.next_op;
                let name = ["op.read", "op.write", "op.advance"][i];
                trace.record(op_id, name, start, ns);
                Some(Sample { op_id, start, ns })
            }
            _ => None,
        };
        (out, sample)
    }

    /// `ns` at reference speed, given what the kernel takes now.
    fn scaled(&self, ns: u64) -> f64 {
        ns as f64 * KERNEL_NOMINAL_US / self.kernel_us
    }

    fn time_kernel(&mut self) {
        self.kernel.push(time_kernel());
        let recent = self.kernel.len().saturating_sub(KERNEL_SMOOTH);
        self.kernel_us = crate::stats::median(&mut self.kernel[recent..].to_vec());
        self.kernel_due = Some(Instant::now() + KERNEL_EVERY);
    }

    /// What the kernel took in the quietest twentieth of this recording, in
    /// µs (0 without timings): how close the host came to reference speed.
    pub fn kernel_quiet(&self) -> f64 {
        crate::stats::quantile(&mut self.kernel.clone(), 0.05)
    }

    /// Call after each completed round of the measured run.
    pub fn round_done(&mut self, rounds: u64) {
        if rounds <= self.rss_round {
            self.rss_mb = peak_rss_mb();
        }
    }

    /// Counts a model disagreement or an error as a failed operation.
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }

    pub fn push(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `SchemaProvider` over the database's public schema lookup.
struct Schemas<'a>(&'a Database);

impl SchemaProvider for Schemas<'_> {
    fn schema_of(&self, name: &str) -> Result<Schema, SqlError> {
        self.0.schema_of_relation(name)
    }
}

fn eval_span(shape: Shape) -> &'static str {
    match shape {
        Shape::Point => "core.eval_point",
        Shape::Range => "core.eval_range",
        Shape::Join => "core.eval_join",
        Shape::Agg | Shape::Count => "core.eval_agg",
        Shape::Diff => "core.eval_diff",
        _ => "core.eval_view",
    }
}

/// Re-drives a read through each layer's public functions, as child spans
/// of a `probe` span that shares the operation's id. Reads have no side
/// effects here: the probe stops before the engine's policy touch.
pub fn probe_read(db: &Database, op: &Op, sample: Sample, rec: &mut Recorder) {
    let trace = rec.trace.as_mut().expect("probes run only when tracing");
    let id = sample.op_id;
    let probe = trace.open(0, id, "probe.read");
    let layers = (|| {
        let expr = if op.shape == Shape::View {
            Expr::base(op.sql.as_str())
        } else {
            let stmt = trace.time(probe, id, "sql.parse_read", || parse(&op.sql));
            let Ok(Statement::Select(query)) = stmt else {
                return None;
            };
            trace
                .time(probe, id, "sql.plan", || plan_query(&query, &Schemas(db)))
                .ok()?
        };
        let catalog = trace.time(probe, id, "engine.snapshot", || db.snapshot());
        let expr = db.inline_views(&expr);
        let result = trace.time(probe, id, eval_span(op.shape), || {
            eval(&expr, &catalog, db.now(), &EvalOptions::default())
        });
        Some((expr, catalog, result.ok()?))
    })();
    trace.close(probe);
    let Some((expr, catalog, result)) = layers else {
        rec.failed += 1;
        return;
    };
    let cloned: usize = catalog.iter().map(|(_, r)| r.len()).sum();
    let rows_in: usize = expr
        .base_names()
        .iter()
        .filter_map(|n| catalog.get(n).ok())
        .map(|r| r.len())
        .sum();
    let out = result.rel.len().max(1) as f64;
    rec.push("engine.snapshot_rows", cloned as f64);
    rec.push("engine.rows_cloned_per_row_out", cloned as f64 / out);
    rec.push("core.rows_in_per_row_out", rows_in as f64 / out);
    rec.push("sql.stmt_bytes", op.sql.len() as f64);
}

fn tuple_of(row: &[i64]) -> Tuple {
    Tuple::new(row.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
}

fn time_of(texp: u64) -> Time {
    if texp == crate::model::NEVER {
        Time::INFINITY
    } else {
        Time::new(texp)
    }
}

/// The harness's own copy of the storage and WAL layers. It receives the
/// identical write stream as the program, so write- and advance-side
/// probes time the layers' public functions at the real table size
/// without touching the database under test.
pub struct Shadow {
    tables: BTreeMap<&'static str, Table>,
    wal: Option<Wal>,
    store: MemStore,
    policy: Option<TtlPolicy>,
    next_log_reset: u64,
}

impl Shadow {
    /// `tables` are `(name, arity)`, every column an integer. An `indexed`
    /// shadow carries a secondary index on column 0 (for the `select_eq`
    /// probe), so its `storage.insert` includes that index's upkeep.
    pub fn new(
        tables: &[(&'static str, usize)],
        indexed: bool,
        durable: bool,
        policy: Option<TtlPolicy>,
    ) -> Shadow {
        let store = MemStore::new();
        let tables = tables
            .iter()
            .map(|&(name, arity)| {
                let attrs = (0..arity)
                    .map(|i| Attribute::new(format!("c{i}"), ValueType::Int))
                    .collect();
                let schema = Schema::new(attrs).expect("distinct column names");
                let mut table = Table::new(name, schema, IndexKind::default());
                if indexed {
                    table.create_index(0).expect("column 0 exists");
                }
                (name, table)
            })
            .collect();
        Shadow {
            tables,
            wal: durable.then(|| Wal::new(Box::new(store.clone()), 1)),
            store,
            policy,
            next_log_reset: 0,
        }
    }

    /// Applies an insert; with a sample, times each layer it crosses.
    pub fn insert(&mut self, op: &Op, now: u64, probe: Option<(&mut Trace, Sample)>) {
        let (table, row, texp) = op.row.as_ref().expect("inserts carry their row");
        let (tuple, texp, now) = (tuple_of(row), time_of(*texp), Time::new(now));
        let t = self.tables.get_mut(table).expect("shadow has the table");
        let Some((trace, sample)) = probe else {
            t.insert(tuple, texp, now)
                .expect("generated rows are valid");
            return;
        };
        let id = sample.op_id;
        let p = trace.open(0, id, "probe.write");
        let _ = black_box(trace.time(p, id, "sql.parse_write", || parse(&op.sql)));
        if let Some(policy) = self.policy {
            trace.time(p, id, "policy.effective_texp", || {
                black_box(policy.effective_texp(PolicyEvent::Write { requested: None }, now))
            });
        }
        let values = tuple.values().to_vec();
        trace.time(p, id, "storage.insert", || {
            t.insert(tuple, texp, now)
                .expect("generated rows are valid");
        });
        if let Some(wal) = &mut self.wal {
            let record = WalRecord::Insert {
                txn: 1,
                table: (*table).to_string(),
                values,
                texp,
            };
            let frame = trace.time(p, id, "wal.encode", || encode_frame(&record));
            let _ = black_box(trace.time(p, id, "wal.decode", || decode_frame(&frame)));
            trace.time(p, id, "wal.append", || {
                let txn = wal.begin_txn();
                wal.append(&WalRecord::TxnBegin { txn })
                    .and_then(|()| wal.append(&record))
                    .and_then(|()| wal.append(&WalRecord::TxnCommit { txn }))
                    .and_then(|()| wal.commit())
                    .expect("MemStore appends cannot fail");
            });
        }
        trace.close(p);
    }

    /// Mirrors a re-arm (`SET EXPIRES DEFAULT`); with a sample, times it.
    pub fn update_texp(&mut self, op: &Op, now: u64, probe: Option<(&mut Trace, Sample)>) {
        let (table, row, texp) = op.row.as_ref().expect("touches carry their row");
        let (tuple, texp, now) = (tuple_of(row), time_of(*texp), Time::new(now));
        let t = self.tables.get_mut(table).expect("shadow has the table");
        match probe {
            Some((trace, sample)) => {
                let policy = self.policy.unwrap_or_default();
                let current = t.texp(&tuple).unwrap_or(texp);
                trace.time(0, sample.op_id, "policy.effective_texp", || {
                    let touch = PolicyEvent::Touch {
                        kind: exptime_policy::TouchKind::Modify,
                        current,
                    };
                    black_box(policy.effective_texp(touch, now))
                });
                trace.time(0, sample.op_id, "storage.update_texp", || {
                    t.update_texp(&tuple, texp, now)
                        .expect("texp is in the future");
                });
            }
            None => {
                t.update_texp(&tuple, texp, now)
                    .expect("texp is in the future");
            }
        }
    }

    pub fn delete(&mut self, op: &Op) {
        let (table, row, _) = op.row.as_ref().expect("deletes carry their row");
        let t = self.tables.get_mut(table).expect("shadow has the table");
        t.delete(&tuple_of(row));
    }

    /// Processes expirations up to `now` as span `storage.expire_due`;
    /// truncates the shadow log on the engine's checkpoint cadence so the
    /// append probe never times an ever-growing buffer.
    pub fn advance(&mut self, now: u64, rec: &mut Recorder, sample: Option<Sample>) {
        let tau = Time::new(now);
        let mut expired = 0;
        let start = Instant::now();
        for t in self.tables.values_mut() {
            expired += t.expire_due(tau).len();
        }
        let ns = start.elapsed().as_nanos() as u64;
        if let (Some(trace), Some(s)) = (&mut rec.trace, sample) {
            trace.record(s.op_id, "storage.expire_due", start, ns);
            rec.push("storage.expired_per_call", expired as f64);
        }
        if now >= self.next_log_reset {
            self.next_log_reset = now + 64;
            let mut store = self.store.clone();
            store.log_reset().expect("MemStore resets cannot fail");
        }
    }

    /// Read-side storage probes on `table`: the copy a snapshot makes, a
    /// borrowed scan, and (with a `key`, on an indexed shadow) the index
    /// probe that SQL never takes.
    pub fn probe_reads(
        &mut self,
        table: &str,
        now: u64,
        key: Option<i64>,
        rec: &mut Recorder,
        sample: Sample,
    ) {
        let trace = rec.trace.as_mut().expect("probes run only when tracing");
        let tau = Time::new(now);
        let id = sample.op_id;
        let t = self.tables.get_mut(table).expect("shadow has the table");
        let live = trace.time(0, id, "storage.to_relation", || t.to_relation(tau).len());
        let start = Instant::now();
        let scanned = black_box(t.scan_at(tau).count());
        let scan_ns = start.elapsed().as_nanos() as u64;
        trace.record(id, "storage.scan", start, scan_ns);
        if let Some(k) = key {
            trace.time(0, id, "storage.select_eq", || {
                black_box(t.select_eq(0, &Value::Int(k), tau).len())
            });
        }
        let stored = t.len() as f64;
        rec.push(
            "storage.scan_ns_per_row",
            scan_ns as f64 / scanned.max(1) as f64,
        );
        rec.push("storage.rows_live", live as f64);
        rec.push("storage.rows_stored", stored);
    }
}

/// Mean cost of the observability primitives at their shipped (dark)
/// settings, on the live database's own tracer, registry and event bus.
pub fn probe_obs(db: &Database, rec: &mut Recorder) {
    const N: u32 = 20_000;
    let mean = |f: &dyn Fn()| {
        let start = Instant::now();
        for _ in 0..N {
            f();
        }
        start.elapsed().as_nanos() as f64 / f64::from(N)
    };
    let tracer = db.tracer();
    rec.push(
        "obs.span_ns",
        mean(&|| drop(black_box(tracer.span("bench.probe")))),
    );
    let counter = db.metrics().counter("bench.probe");
    rec.push("obs.counter_inc_ns", mean(&|| counter.inc()));
    let obs = db.obs();
    rec.push(
        "obs.event_emit_ns",
        mean(&|| {
            obs.emit_with(Some(0), || exptime_obs::EventKind::VacuumPass {
                at: 0,
                removed: 0,
            });
        }),
    );
    rec.count(
        "obs.events_dropped",
        db.metrics().counter_value("obs.events_dropped") as f64,
    );
    rec.count("obs.spans_dropped", tracer.dropped() as f64);
}

/// The registry counters a run reports as deltas.
pub fn registry_counts(db: &Database) -> BTreeMap<String, u64> {
    db.metrics().counters().into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_divides_by_what_the_kernel_takes_now() {
        let mut rec = Recorder::new(None);
        // 1 ms while the kernel takes twice its nominal time is 0.5 ms.
        rec.kernel_us = 2.0 * KERNEL_NOMINAL_US;
        assert!((rec.scaled(1_000_000) - 500_000.0).abs() < 1e-3);
        rec.kernel_us = KERNEL_NOMINAL_US;
        assert!((rec.scaled(1_000_000) - 1_000_000.0).abs() < 1e-3);
    }
}
