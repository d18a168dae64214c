//! `EXPLAIN ANALYZE` support and the statement profiler.
//!
//! [`eval_profiled`] runs the one evaluator
//! ([`eval`](crate::algebra::eval::eval)'s recursion) under a [`Probe`]
//! that records, per operator, rows in/out, expiration-filtered rows,
//! per-node `texp`, and elapsed wall time — the [`PlanProfile`] tree, the
//! one per-operator record — and, handed a [`Tracer`], opens each
//! operator's span as it enters it. The hot path runs the same recursion
//! under the no-op probe, so profiling costs nothing when not requested
//! and the two can never disagree. The [`Profiler`] folds the trees of
//! sampled statements into a per-operator aggregate.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use exptime_obs::{SpanGuard, Tracer};

use crate::algebra::eval::{eval_probed, EvalOptions, Materialized, Probe};
use crate::algebra::expr::Expr;
use crate::catalog::Bindings;
use crate::error::Result;
use crate::time::Time;

/// One operator's worth of `EXPLAIN ANALYZE` output, with its children.
#[derive(Debug, Clone)]
pub struct PlanProfile {
    /// Short operator label, e.g. `σ[deg = 25]` or `Base(Pol)`.
    pub label: String,
    /// Rows produced by this operator (visible at `τ`).
    pub rows_out: u64,
    /// Physically present rows this operator skipped because their
    /// expiration time had passed (`texp ≤ τ`). Non-zero only at `Base`
    /// leaves over storage that removes lazily, between vacuums.
    pub expired_filtered: u64,
    /// This node's expression expiration time `texp(e)`.
    pub texp: Time,
    /// Wall time spent in this operator *including* children.
    pub elapsed: Duration,
    /// Input subplans (0 for leaves, 1 for unary, 2 for binary operators).
    pub children: Vec<PlanProfile>,
}

impl PlanProfile {
    /// Rows flowing into this operator: the sum of child outputs.
    #[must_use]
    pub fn rows_in(&self) -> u64 {
        self.children.iter().map(|c| c.rows_out).sum()
    }

    /// Wall time spent in this operator *excluding* children.
    #[must_use]
    pub fn self_elapsed(&self) -> Duration {
        self.elapsed
            .checked_sub(self.children.iter().map(|c| c.elapsed).sum())
            .unwrap_or(Duration::ZERO)
    }

    /// Total operator count in the subtree (for summaries).
    #[must_use]
    pub fn node_count(&self) -> u64 {
        1 + self
            .children
            .iter()
            .map(PlanProfile::node_count)
            .sum::<u64>()
    }

    /// Renders the annotated plan tree, one operator per line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let texp = match self.texp.finite() {
            Some(t) => t.to_string(),
            None => "∞".to_string(),
        };
        out.push_str(&format!(
            "{}  rows={} (in {}, expired {})  texp={}  {:.1}µs\n",
            self.label,
            self.rows_out,
            self.rows_in(),
            self.expired_filtered,
            texp,
            self.self_elapsed().as_nanos() as f64 / 1_000.0,
        ));
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

fn label_of(expr: &Expr) -> String {
    match expr {
        Expr::Base(name) => format!("Base({name})"),
        Expr::Select { predicate, .. } => format!("σ[{predicate}]"),
        Expr::Project { positions, .. } => {
            let ps: Vec<String> = positions.iter().map(ToString::to_string).collect();
            format!("π[{}]", ps.join(","))
        }
        Expr::Product { .. } => "×".to_string(),
        Expr::Union { .. } => "∪".to_string(),
        Expr::Join { predicate, .. } => format!("⋈[{predicate}]"),
        Expr::Intersect { .. } => "∩".to_string(),
        Expr::Difference { .. } => "−".to_string(),
        Expr::Aggregate { group_by, func, .. } => {
            let gs: Vec<String> = group_by.iter().map(ToString::to_string).collect();
            format!("γ[{}; {func}]", gs.join(","))
        }
    }
}

/// An operator the recorder has entered and not yet left.
struct Open {
    label: String,
    span: Option<SpanGuard>,
    started: Instant,
    children: Vec<PlanProfile>,
}

/// The recording [`Probe`]: a stack of open operators, each collecting
/// the finished profiles of its inputs and, under a tracer, holding its
/// own span open.
struct Recorder<'t> {
    tracer: Option<&'t Tracer>,
    tau: Time,
    open: Vec<Open>,
    root: Option<PlanProfile>,
}

impl Probe for Recorder<'_> {
    fn enter(&mut self, expr: &Expr) {
        let label = label_of(expr);
        let span = self.tracer.map(|tracer| tracer.span(&label));
        self.open.push(Open {
            label,
            span,
            started: Instant::now(),
            children: Vec::new(),
        });
    }

    fn leave(&mut self, rows_out: usize, expired_filtered: usize, texp: Time) {
        let open = self.open.pop().expect("leave pairs with enter");
        let node = PlanProfile {
            label: open.label,
            rows_out: rows_out as u64,
            expired_filtered: expired_filtered as u64,
            texp,
            elapsed: open.started.elapsed(),
            children: open.children,
        };
        if let Some(mut span) = open.span {
            span.attr("rows_out", node.rows_out);
            span.attr("expired_filtered", node.expired_filtered);
            span.attr("texp", texp);
            if let Some(t) = self.tau.finite() {
                span.at(t);
            }
        }
        match self.open.last_mut() {
            Some(parent) => parent.children.push(node),
            None => self.root = Some(node),
        }
    }
}

/// An evaluation that fails leaves operators entered: their spans close
/// innermost first, so each still ends inside its parent.
impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        while self.open.pop().is_some() {}
    }
}

/// Materialises `expr` like [`eval`](crate::algebra::eval::eval) while
/// also producing an annotated per-operator [`PlanProfile`] — and, given a
/// `tracer`, one span per operator under the caller's open span, labelled
/// like its profile row and closed with its `rows_out`,
/// `expired_filtered` and `texp`.
///
/// The returned materialisation is `eval`'s (same relation, `texp`,
/// validity, and patch queue): both run the same recursion.
///
/// # Errors
///
/// Returns the same errors as `eval`.
pub fn eval_profiled(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    tracer: Option<&Tracer>,
) -> Result<(Materialized, PlanProfile)> {
    let mut recorder = Recorder {
        tracer,
        tau,
        open: Vec::new(),
        root: None,
    };
    let m = eval_probed(expr, catalog, tau, opts, &mut recorder)?;
    let profile = recorder.root.take().expect("the root operator was left");
    Ok((m, profile))
}

/// One operator label's share of the sampled statements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorAgg {
    pub calls: u64,
    pub rows_out: u64,
    pub self_elapsed: Duration,
}

/// What the [`Profiler`] has folded.
#[derive(Debug, Clone, Default)]
pub struct ProfileStats {
    /// Statements folded in.
    pub sampled: u64,
    /// Operator label → calls, rows out and self time.
    pub by_operator: BTreeMap<String, OperatorAgg>,
    /// The most recent sampled statement: its expression and its tree.
    pub last: Option<(String, PlanProfile)>,
}

impl ProfileStats {
    /// The per-operator table, heaviest self time first.
    #[must_use]
    pub fn render(&self) -> String {
        let mut ops: Vec<_> = self.by_operator.iter().collect();
        ops.sort_by(|a, b| (b.1.self_elapsed, a.0).cmp(&(a.1.self_elapsed, b.0)));
        ops.into_iter()
            .map(|(label, agg)| {
                let self_ns = agg.self_elapsed.as_nanos();
                let (calls, rows) = (agg.calls, agg.rows_out);
                format!("  {label:<24} calls={calls:<6} rows={rows:<8} self={self_ns}ns\n")
            })
            .collect()
    }
}

/// The statement profiler: the engine hands it the [`PlanProfile`] of each
/// statement it samples. Cloning shares the aggregate.
#[derive(Debug, Clone, Default)]
pub struct Profiler(Arc<Mutex<ProfileStats>>);

impl Profiler {
    /// Folds one sampled statement, `label` being its expression, into
    /// the per-operator aggregate and keeps it as the last.
    pub fn record(&self, label: String, profile: &PlanProfile) {
        fn fold(p: &PlanProfile, by_operator: &mut BTreeMap<String, OperatorAgg>) {
            let agg = by_operator.entry(p.label.clone()).or_default();
            agg.calls += 1;
            agg.rows_out += p.rows_out;
            agg.self_elapsed += p.self_elapsed();
            for child in &p.children {
                fold(child, by_operator);
            }
        }
        let mut stats = self.0.lock().expect("a profiler update panicked");
        stats.sampled += 1;
        fold(profile, &mut stats.by_operator);
        stats.last = Some((label, profile.clone()));
    }

    /// A snapshot of the aggregate.
    #[must_use]
    pub fn snapshot(&self) -> ProfileStats {
        self.0.lock().expect("a profiler update panicked").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    fn catalog() -> Catalog {
        let schema = Schema::of(&[("uid", ValueType::Int), ("deg", ValueType::Int)]);
        let mut c = Catalog::new();
        c.register(
            "Pol",
            Relation::from_rows(
                schema.clone(),
                vec![
                    (tuple![1, 25], t(10)),
                    (tuple![2, 25], t(15)),
                    (tuple![3, 35], t(10)),
                ],
            )
            .unwrap(),
        );
        c.register(
            "El",
            Relation::from_rows(
                schema,
                vec![
                    (tuple![1, 75], t(5)),
                    (tuple![2, 85], t(3)),
                    (tuple![4, 90], t(2)),
                ],
            )
            .unwrap(),
        );
        c
    }

    #[test]
    fn profile_counts_rows_and_expired() {
        let c = catalog();
        // At τ=4, El has lost ⟨2,85⟩@3 and ⟨4,90⟩@2 to expiration.
        let e = Expr::base("El").project([0]);
        let (_, p) = eval_profiled(&e, &c, t(4), &EvalOptions::default(), None).unwrap();
        assert_eq!(p.label, "π[0]");
        assert_eq!(p.rows_out, 1);
        assert_eq!(p.rows_in(), 1);
        assert_eq!(p.children.len(), 1);
        let base = &p.children[0];
        assert_eq!(base.label, "Base(El)");
        assert_eq!(base.rows_out, 1);
        assert_eq!(base.expired_filtered, 2);
        assert_eq!(p.node_count(), 2);
    }

    #[test]
    fn profile_tracks_per_node_texp() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let (m, p) = eval_profiled(&e, &c, Time::ZERO, &EvalOptions::default(), None).unwrap();
        assert_eq!(p.texp, t(3), "difference node carries Equation 11");
        assert_eq!(m.texp, t(3));
        assert!(p.children.iter().all(|c| c.texp.is_infinite()));
        let rendered = p.render();
        assert!(rendered.contains("−"), "{rendered}");
        assert!(rendered.contains("texp=3"), "{rendered}");
        assert!(rendered.contains("texp=∞"), "{rendered}");
    }

    #[test]
    fn profiled_patched_root_keeps_theorem_3() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let opts = EvalOptions {
            patch_root: true,
            ..EvalOptions::default()
        };
        let (m, p) = eval_profiled(&e, &c, Time::ZERO, &opts, None).unwrap();
        assert_eq!(m.texp, Time::INFINITY, "Theorem 3");
        assert!(m.patches.is_some());
        assert_eq!(p.texp, Time::INFINITY, "profile reflects patched texp");
    }

    #[test]
    fn a_traced_evaluation_opens_one_span_per_operator() {
        let c = catalog();
        let tracer = Tracer::detached();
        tracer.enable();
        let e = Expr::base("El").project([0]);
        let outer = tracer.span("eval");
        let (_, p) = eval_profiled(&e, &c, t(4), &EvalOptions::default(), Some(&tracer)).unwrap();
        let outer_id = outer.id();
        drop(outer);
        let spans = tracer.recent(10);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["Base(El)", "π[0]", "eval"],
            "closed innermost first"
        );
        let (base, pi) = (&spans[0], &spans[1]);
        assert_eq!((base.parent, pi.parent), (Some(pi.id), Some(outer_id)));
        assert!(pi.start_ns <= base.start_ns && base.end_ns <= pi.end_ns);
        let attr = |k: &str| base.attrs.iter().find(|(n, _)| n == k).unwrap().1.clone();
        assert_eq!(
            (attr("rows_out"), attr("expired_filtered"), attr("texp")),
            ("1".into(), "2".into(), "∞".into())
        );
        assert_eq!(base.logical_time, Some(4));
        assert_eq!(p.label, pi.name);
    }
}
