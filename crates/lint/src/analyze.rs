//! The query/plan analyzer: walks a planned algebra expression (and, when
//! available, the SQL AST for source spans) and emits the registry's
//! diagnostics. All facts are *static* — derived from [`Expr::soundness`]
//! without touching data.

use crate::diag::{Code, Diagnostic, LintReport, Severity};
use exptime_core::aggregate::AggFunc;
use exptime_core::algebra::Expr;
use exptime_core::rewrite::{rewrite, Monotonicity, StaticBound};
use exptime_sql::ast::{Query, SelectItem, SetOp};
use exptime_sql::span::Span;

/// How the analysed statement will be used — changes severities and which
/// checks fire.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzerOptions {
    /// The result will be materialised and maintained (CREATE MATERIALIZED
    /// VIEW, or a query being *considered* for materialisation, which is
    /// how `\lint` treats bare SELECTs).
    pub materialized: bool,
    /// The engine's root-difference patch queue (Theorem 3) is enabled, so
    /// a root difference does not force recomputation.
    pub patch_root_difference: bool,
    /// Schrödinger validity-interval semantics were requested for reads.
    pub schrodinger: bool,
}

impl Default for AnalyzerOptions {
    fn default() -> Self {
        AnalyzerOptions {
            materialized: true,
            patch_root_difference: false,
            schrodinger: false,
        }
    }
}

/// Analyses a planned expression, anchoring diagnostics to source spans
/// from `query` when it is given.
#[must_use]
pub fn analyze(query: Option<&Query>, plan: &Expr, opts: &AnalyzerOptions) -> LintReport {
    let mut out = Vec::new();
    let s = plan.soundness();
    let query_span = query.map_or(Span::DUMMY, |q| q.span);

    // X001 — non-monotonic operator not pulled to the top (Section 3.1).
    if s.monotonicity == Monotonicity::NonMonotonicInner {
        let rewritten = rewrite(plan);
        let improved = rewritten.soundness().monotonicity < s.monotonicity;
        let mut d = Diagnostic::new(
            Code::X001,
            Severity::Warning,
            "non-monotonic operator is not at the top of the plan; recomputations cascade \
             through the operators above it (Section 3.1)",
            query_span,
        );
        d = if improved {
            d.with_suggestion(format!("the pull-up rewrite lifts it: {rewritten}"))
        } else {
            d.with_suggestion(
                "no rewrite lifts it; materialise the non-monotonic subtree separately so \
                 only it is recomputed"
                    .to_string(),
            )
        };
        out.push(d);
    }

    // X002 — materialised difference without the Theorem 3 patch helper.
    let diffs = count_ops(plan, &|e| matches!(e, Expr::Difference { .. }));
    if opts.materialized && diffs > 0 && !opts.patch_root_difference {
        let span = query.and_then(first_except_span).unwrap_or(query_span);
        out.push(
            Diagnostic::new(
                Code::X002,
                Severity::Error,
                "materialised difference without patch helper: the view's expiration is \
                 finite whenever a critical tuple exists (Table 2 / Eq. 11), forcing full \
                 recomputation on every expiry",
                span,
            )
            .with_suggestion(
                "hold the view where a Theorem 3 patch queue maintains it \
                 (RefreshPolicy::Patch, as a Replica does): patches replace recomputations \
                 entirely"
                    .to_string(),
            ),
        );
    }

    // X003 — aggregate whose function admits no non-empty neutral set
    // (Table 1: only ∅ is neutral for count), so no time-sliced or
    // contributing set can extend validity past the next change point χ.
    let count_aggs = count_ops(plan, &|e| {
        matches!(
            e,
            Expr::Aggregate {
                func: AggFunc::Count,
                ..
            }
        )
    });
    if count_aggs > 0 {
        // Anchor each diagnostic at a COUNT item in the SELECT lists.
        let spans = query.map_or_else(Vec::new, count_item_spans);
        for i in 0..count_aggs {
            let span = spans.get(i).copied().unwrap_or(query_span);
            out.push(
                Diagnostic::new(
                    Code::X003,
                    Severity::Warning,
                    "COUNT admits no neutral, time-sliced, or contributing set (Table 1): \
                     the result's validity ends at the next change point χ of its partition",
                    span,
                )
                .with_suggestion(
                    "every expiring tuple changes the count; if approximate counts suffice, \
                     evaluate with a tolerance, else budget for refresh at each χ"
                        .to_string(),
                ),
            );
        }
    }

    // X004 — Schrödinger semantics over stacked non-monotonic operators:
    // the answer's validity interval I∗ is the intersection of per-operator
    // validity intervals, and with non-monotonic operators feeding each
    // other the intersection collapses to the query instant.
    if opts.schrodinger
        && s.non_monotonic_count >= 2
        && s.monotonicity == Monotonicity::NonMonotonicInner
    {
        out.push(
            Diagnostic::new(
                Code::X004,
                Severity::Error,
                format!(
                    "Schrödinger semantics requested, but {} stacked non-monotonic operators \
                     collapse the validity interval I∗ to the query instant",
                    s.non_monotonic_count
                ),
                query_span,
            )
            .with_suggestion(
                "rewrite so at most one non-monotonic operator remains (pull-up + patching), \
                 or accept instant-only answers"
                    .to_string(),
            ),
        );
    }

    // Info — a sound-infinite plan is worth stating, but only when asked
    // to lint a materialisation candidate with a finite bound elsewhere.
    // (Deliberately no diagnostic: Fig. 2 monotonic workloads must report
    // zero diagnostics, including info.)
    let _ = StaticBound::Infinite;

    LintReport::new(out)
}

/// Counts nodes of `plan` matching `pred`.
fn count_ops(plan: &Expr, pred: &dyn Fn(&Expr) -> bool) -> usize {
    let here = usize::from(pred(plan));
    here + match plan {
        Expr::Base(_) => 0,
        Expr::Select { input, .. } | Expr::Project { input, .. } => count_ops(input, pred),
        Expr::Aggregate { input, .. } => count_ops(input, pred),
        Expr::Product { left, right }
        | Expr::Union { left, right }
        | Expr::Join { left, right, .. }
        | Expr::Intersect { left, right }
        | Expr::Difference { left, right } => count_ops(left, pred) + count_ops(right, pred),
    }
}

/// The span of the first `EXCEPT` keyword in the query, if any.
fn first_except_span(query: &Query) -> Option<Span> {
    query
        .compound
        .iter()
        .zip(&query.set_op_spans)
        .find(|((op, _), _)| *op == SetOp::Except)
        .map(|(_, span)| *span)
}

/// Spans of every `COUNT(...)` select item, in source order across the
/// first body and all compound bodies.
fn count_item_spans(query: &Query) -> Vec<Span> {
    let mut spans = Vec::new();
    let bodies = std::iter::once(&query.body).chain(query.compound.iter().map(|(_, body)| body));
    for body in bodies {
        for item in &body.projection {
            if let SelectItem::Aggregate {
                func: exptime_sql::ast::AggName::Count,
                span,
                ..
            } = item
            {
                spans.push(*span);
            }
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::predicate::Predicate;
    use exptime_sql::ast::Statement;
    use exptime_sql::parse;

    fn planned(sql: &str) -> (Query, Expr) {
        let Statement::Select(q) = parse(sql).unwrap() else {
            panic!("not a select")
        };
        let mut catalog = exptime_core::catalog::Catalog::new();
        let schema = exptime_core::schema::Schema::of(&[
            ("uid", exptime_core::value::ValueType::Int),
            ("deg", exptime_core::value::ValueType::Int),
        ]);
        catalog.register("pol", exptime_core::relation::Relation::new(schema.clone()));
        catalog.register("el", exptime_core::relation::Relation::new(schema));
        let plan = exptime_sql::plan_query(&q, &catalog).unwrap();
        (q, plan)
    }

    #[test]
    fn monotonic_workload_is_clean() {
        for sql in [
            "SELECT * FROM pol",
            "SELECT uid FROM pol WHERE deg >= 25",
            "SELECT * FROM pol JOIN el ON pol.uid = el.uid",
            "SELECT uid FROM pol UNION SELECT uid FROM el",
            "SELECT uid FROM pol INTERSECT SELECT uid FROM el",
        ] {
            let (q, plan) = planned(sql);
            let r = analyze(Some(&q), &plan, &AnalyzerOptions::default());
            assert!(r.is_clean(), "{sql}: {:?}", r.diagnostics);
        }
    }

    #[test]
    fn figure_3a_aggregate_flags_x001_and_x003() {
        let (q, plan) = planned("SELECT deg, COUNT(*) FROM pol GROUP BY deg");
        let r = analyze(Some(&q), &plan, &AnalyzerOptions::default());
        assert_eq!(r.codes(), vec![Code::X001, Code::X003]);
    }

    #[test]
    fn materialized_difference_flags_x002_until_patching_enabled() {
        let (q, plan) = planned("SELECT uid FROM pol EXCEPT SELECT uid FROM el");
        let r = analyze(Some(&q), &plan, &AnalyzerOptions::default());
        assert_eq!(r.codes(), vec![Code::X002]);
        assert!(r.has_errors());
        // With Theorem 3 patching on, the difference is maintained by
        // patches — no diagnostic.
        let opts = AnalyzerOptions {
            patch_root_difference: true,
            ..AnalyzerOptions::default()
        };
        assert!(analyze(Some(&q), &plan, &opts).is_clean());
        // Non-materialised reads don't pay the maintenance cost either.
        let opts = AnalyzerOptions {
            materialized: false,
            ..AnalyzerOptions::default()
        };
        assert!(analyze(Some(&q), &plan, &opts).is_clean());
    }

    #[test]
    fn schrodinger_over_stacked_nonmonotonic_flags_x004() {
        // Aggregate over a difference: two stacked non-monotonic ops.
        let plan = Expr::base("pol")
            .difference(Expr::base("el"))
            .aggregate(vec![], AggFunc::Count);
        let opts = AnalyzerOptions {
            schrodinger: true,
            patch_root_difference: true,
            ..AnalyzerOptions::default()
        };
        let r = analyze(None, &plan, &opts);
        assert!(r.codes().contains(&Code::X004), "{:?}", r.codes());
        // Without Schrödinger semantics, no X004.
        let opts = AnalyzerOptions {
            schrodinger: false,
            patch_root_difference: true,
            ..AnalyzerOptions::default()
        };
        assert!(!analyze(None, &plan, &opts).codes().contains(&Code::X004));
    }

    #[test]
    fn x001_suggests_the_pullup_rewrite_when_it_helps() {
        // σ above a difference: the rewrite pushes the select down and
        // re-exposes the root difference.
        let plan = Expr::base("pol")
            .difference(Expr::base("el"))
            .select(Predicate::attr_eq_const(0, 1));
        let opts = AnalyzerOptions {
            patch_root_difference: true,
            ..AnalyzerOptions::default()
        };
        let r = analyze(None, &plan, &opts);
        assert_eq!(r.codes(), vec![Code::X001]);
        let sug = r.diagnostics[0].suggestion.as_deref().unwrap();
        assert!(sug.contains("pull-up rewrite"), "{sug}");
    }

    #[test]
    fn plan_only_analysis_uses_dummy_spans() {
        let plan = Expr::base("pol").aggregate(vec![], AggFunc::Count);
        let r = analyze(None, &plan, &AnalyzerOptions::default());
        assert_eq!(r.codes(), vec![Code::X003]);
        assert!(r.diagnostics[0].span.is_dummy());
    }
}
