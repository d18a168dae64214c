//! Per-query resource profiles and the always-on sampled aggregate.
//!
//! A [`QueryProfile`] is the resource bill for one statement: rows
//! scanned at base relations, tuples materialized, expiration
//! change-points evaluated (one per operator node — each computes its
//! result `texp`), patch-queue operations, logical allocations from the
//! [`AllocCounter`] shim, and wall time split per operator.
//!
//! The [`Profiler`] folds every statement's bill into a running
//! aggregate. Scalar totals are always on (a handful of adds); the
//! per-operator breakdown and the retained last profile are *sampled* —
//! every Nth statement — so the detail plane stays cheap on hot paths.
//!
//! [`fold_spans`] / [`render_flame`] turn the span ring into a
//! flamegraph-style rollup (folded stacks with self-time), which is what
//! the CLI's `\profile` prints under the aggregate.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::span::SpanRecord;

/// A logical allocation counter: the counting shim behind
/// `QueryProfile::allocations`.
///
/// Every crate root forbids `unsafe`, so a `#[global_allocator]` hook is
/// off the table by design; instead, materialization sites (relation
/// construction, patch application, tuple cloning) call [`AllocCounter::note`]
/// with the number of logical allocations they just performed. The engine
/// drains the counter per statement with [`AllocCounter::take`].
#[derive(Clone, Debug, Default)]
pub struct AllocCounter {
    n: Arc<AtomicU64>,
}

impl AllocCounter {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` logical allocations. Relaxed: the counter is a tally,
    /// not a synchronization point.
    pub fn note(&self, n: u64) {
        self.n.fetch_add(n, Ordering::Relaxed);
    }

    /// Current tally without resetting.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }

    /// Returns the tally and resets it to zero (per-statement drain).
    pub fn take(&self) -> u64 {
        self.n.swap(0, Ordering::Relaxed)
    }
}

/// One operator's share of a statement's wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorCost {
    /// Operator label, e.g. `σ[deg = 25]` or `Base(Pol)`.
    pub label: String,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Wall nanoseconds spent in the operator excluding its children.
    pub self_ns: u64,
}

/// The resource bill for one executed statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Statement label (the SQL head or the expression description).
    pub label: String,
    /// Rows visible at `τ` that the statement's scans of base relations
    /// visited, counted by the scans themselves: a table named (or, with
    /// the optimizer's statistics pass, read) twice counts twice, and a
    /// view served from its materialisation scans nothing.
    pub rows_scanned: u64,
    /// Tuples materialized across all operators (every intermediate row).
    pub tuples_materialized: u64,
    /// Expiration change-points evaluated: one per operator node, each
    /// computing its result's `texp` from its inputs' (Section 3 of the
    /// paper — expiration propagates through the algebra).
    pub change_points: u64,
    /// Patch-queue operations (Theorem 3 appends/applies) during the
    /// statement, including any view refresh it triggered.
    pub patch_ops: u64,
    /// Logical allocations reported by the [`AllocCounter`] shim.
    pub allocations: u64,
    /// Total wall nanoseconds for the statement.
    pub wall_ns: u64,
    /// Per-operator wall-time split, heaviest first.
    pub operators: Vec<OperatorCost>,
}

/// Aggregated per-operator cost inside [`ProfileStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorAgg {
    pub calls: u64,
    pub rows_out: u64,
    pub self_ns: u64,
}

/// The profiler's running aggregate: always-on scalar totals plus the
/// sampled per-operator breakdown.
#[derive(Debug, Clone, Default)]
pub struct ProfileStats {
    /// Statements recorded (all of them, sampled or not).
    pub statements: u64,
    /// Statements that contributed per-operator detail.
    pub sampled: u64,
    pub rows_scanned: u64,
    pub tuples_materialized: u64,
    pub change_points: u64,
    pub patch_ops: u64,
    pub allocations: u64,
    pub wall_ns: u64,
    /// Operator label → aggregated cost, fed by sampled statements only.
    pub by_operator: BTreeMap<String, OperatorAgg>,
    /// The most recent sampled profile, in full.
    pub last: Option<QueryProfile>,
}

impl ProfileStats {
    /// Renders the aggregate: totals, then sampled operators by self
    /// time, heaviest first.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "statements={} sampled={} wall={}ns",
            self.statements, self.sampled, self.wall_ns
        );
        let _ = writeln!(
            out,
            "rows_scanned={} materialized={} change_points={} patch_ops={} allocations={}",
            self.rows_scanned,
            self.tuples_materialized,
            self.change_points,
            self.patch_ops,
            self.allocations
        );
        let mut ops: Vec<(&String, &OperatorAgg)> = self.by_operator.iter().collect();
        ops.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        for (label, agg) in ops {
            let _ = writeln!(
                out,
                "  {label:<24} calls={:<6} rows={:<8} self={}ns",
                agg.calls, agg.rows_out, agg.self_ns
            );
        }
        out
    }
}

#[derive(Debug, Default)]
struct ProfilerInner {
    sample_every: u64,
    seen: AtomicU64,
    stats: Mutex<ProfileStats>,
}

/// Always-on statement profiler. Cloning shares the aggregate.
#[derive(Debug, Clone)]
pub struct Profiler {
    inner: Arc<ProfilerInner>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new(16)
    }
}

impl Profiler {
    /// A profiler sampling per-operator detail from every
    /// `sample_every`-th statement (clamped to at least 1, i.e. all).
    #[must_use]
    pub fn new(sample_every: u64) -> Self {
        Profiler {
            inner: Arc::new(ProfilerInner {
                sample_every: sample_every.max(1),
                ..Default::default()
            }),
        }
    }

    /// Whether the *next* recorded statement falls on the sampling
    /// cadence. The engine asks this before executing so it only pays
    /// for per-operator collection when the detail will be kept; the
    /// very first statement is always sampled, so `\profile` is never
    /// empty after one query.
    #[must_use]
    pub fn next_is_sampled(&self) -> bool {
        self.inner.seen.load(Ordering::Relaxed) % self.inner.sample_every == 0
    }

    /// Folds one statement's bill into the aggregate. Scalar totals are
    /// always accumulated; the operator breakdown (and the retained full
    /// profile) only when the bill carries per-operator detail — which
    /// the engine collects exactly when [`Profiler::next_is_sampled`]
    /// said to (or unconditionally, for `EXPLAIN ANALYZE`).
    pub fn record(&self, profile: QueryProfile) {
        self.inner.seen.fetch_add(1, Ordering::Relaxed);
        let sampled = !profile.operators.is_empty();
        let mut stats = self.inner.stats.lock().unwrap();
        stats.statements += 1;
        stats.rows_scanned += profile.rows_scanned;
        stats.tuples_materialized += profile.tuples_materialized;
        stats.change_points += profile.change_points;
        stats.patch_ops += profile.patch_ops;
        stats.allocations += profile.allocations;
        stats.wall_ns += profile.wall_ns;
        if sampled {
            stats.sampled += 1;
            for op in &profile.operators {
                let agg = stats.by_operator.entry(op.label.clone()).or_default();
                agg.calls += 1;
                agg.rows_out += op.rows_out;
                agg.self_ns += op.self_ns;
            }
            stats.last = Some(profile);
        }
    }

    /// A snapshot of the aggregate.
    #[must_use]
    pub fn snapshot(&self) -> ProfileStats {
        self.inner.stats.lock().unwrap().clone()
    }

    /// Clears the aggregate (the sampling phase is preserved).
    pub fn reset(&self) {
        *self.inner.stats.lock().unwrap() = ProfileStats::default();
    }
}

/// One folded stack: a `;`-joined root→leaf name path, how many spans
/// landed on it, and their summed self-time (flamegraph "collapsed"
/// format, minus the file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedStack {
    pub stack: String,
    pub calls: u64,
    pub self_ns: u64,
}

/// Folds closed spans into flamegraph stacks. Parent links that point
/// outside `spans` (evicted from the ring) make the span a root of its
/// own stack — the rollup degrades gracefully as the ring wraps.
/// Returns stacks sorted by self-time, heaviest first.
#[must_use]
pub fn fold_spans(spans: &[SpanRecord]) -> Vec<FoldedStack> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            if by_id.contains_key(&p) {
                *child_ns.entry(p).or_insert(0) += s.duration_ns();
            }
        }
    }
    let mut folded: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut path = vec![s.name.as_str()];
        let mut cursor = s.parent;
        while let Some(p) = cursor {
            match by_id.get(&p) {
                Some(parent) => {
                    path.push(parent.name.as_str());
                    cursor = parent.parent;
                }
                None => break,
            }
        }
        path.reverse();
        let self_ns = s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let entry = folded.entry(path.join(";")).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += self_ns;
    }
    let mut out: Vec<FoldedStack> = folded
        .into_iter()
        .map(|(stack, (calls, self_ns))| FoldedStack {
            stack,
            calls,
            self_ns,
        })
        .collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.stack.cmp(&b.stack)));
    out
}

/// Renders folded stacks as a proportional text flamegraph rollup.
#[must_use]
pub fn render_flame(folded: &[FoldedStack], width: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let max = folded.iter().map(|f| f.self_ns).max().unwrap_or(0);
    for f in folded {
        let bar_len =
            (u128::from(f.self_ns) * width.max(1) as u128).div_ceil(u128::from(max.max(1)));
        let _ = writeln!(
            out,
            "{:<40} {:>5}x {:>12}ns  {}",
            f.stack,
            f.calls,
            f.self_ns,
            "#".repeat(bar_len as usize)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(label: &str, wall_ns: u64) -> QueryProfile {
        QueryProfile {
            label: label.into(),
            rows_scanned: 10,
            tuples_materialized: 6,
            change_points: 3,
            patch_ops: 1,
            allocations: 9,
            wall_ns,
            operators: vec![
                OperatorCost {
                    label: "Base(t)".into(),
                    rows_out: 10,
                    self_ns: wall_ns / 2,
                },
                OperatorCost {
                    label: "σ[k = 1]".into(),
                    rows_out: 6,
                    self_ns: wall_ns / 2,
                },
            ],
        }
    }

    #[test]
    fn profiler_totals_are_always_on_and_detail_is_sampled() {
        let p = Profiler::new(2);
        for i in 0..4 {
            // Mimic the engine: collect operator detail only when the
            // profiler asks for it.
            let mut bill = profile("q", 100 + i);
            if !p.next_is_sampled() {
                bill.operators.clear();
            }
            p.record(bill);
        }
        let s = p.snapshot();
        assert_eq!(s.statements, 4);
        assert_eq!(s.sampled, 2, "every 2nd statement contributes detail");
        assert_eq!(s.rows_scanned, 40, "totals count all statements");
        assert_eq!(s.allocations, 36);
        assert_eq!(s.by_operator["Base(t)"].calls, 2);
        assert!(s.last.is_some());
        let rendered = s.render();
        assert!(rendered.contains("statements=4 sampled=2"), "{rendered}");
        assert!(rendered.contains("Base(t)"), "{rendered}");
        p.reset();
        assert_eq!(p.snapshot().statements, 0);
    }

    #[test]
    fn first_statement_is_always_sampled() {
        let p = Profiler::new(16);
        assert!(p.next_is_sampled());
        p.record(profile("q", 10));
        assert!(!p.next_is_sampled(), "second of sixteen is not");
        let s = p.snapshot();
        assert_eq!(s.sampled, 1);
        assert_eq!(s.last.as_ref().map(|l| l.label.as_str()), Some("q"));
    }

    #[test]
    fn alloc_counter_drains_per_statement() {
        let a = AllocCounter::new();
        a.note(5);
        a.note(2);
        assert_eq!(a.get(), 7);
        assert_eq!(a.take(), 7);
        assert_eq!(a.get(), 0);
    }

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            logical_time: None,
            attrs: vec![],
        }
    }

    #[test]
    fn folding_computes_self_time_and_survives_evicted_parents() {
        let spans = vec![
            span(1, None, "query", 0, 100),
            span(2, Some(1), "eval", 10, 60),
            span(3, Some(1), "eval", 60, 90),
            // Parent 99 fell off the ring: becomes its own root.
            span(4, Some(99), "vacuum", 0, 40),
        ];
        let folded = fold_spans(&spans);
        let find = |stack: &str| folded.iter().find(|f| f.stack == stack).unwrap();
        assert_eq!(find("query;eval").calls, 2);
        assert_eq!(find("query;eval").self_ns, 80);
        assert_eq!(find("query").self_ns, 20, "100 minus the 80 in children");
        assert_eq!(find("vacuum").self_ns, 40);
        let flame = render_flame(&folded, 30);
        assert!(flame.contains("query;eval"), "{flame}");
        assert!(
            flame.lines().next().unwrap().starts_with("query;eval"),
            "heaviest first\n{flame}"
        );
    }
}
