//! Cost estimation for expiration-time query plans (paper Section 3.1:
//! "In a DBMS, the cost estimation mechanisms can be made use of to
//! estimate the impact of a rewrite-rule application").
//!
//! Two quantities matter for plan choice in this setting:
//!
//! * **work** — the classic cardinality-based evaluation cost; and
//! * **fragility** — an estimate of how often the materialised plan will
//!   need recomputation: differences contribute their estimated critical
//!   sets (`{t | t ∈ R ∧ t ∈ S ∧ texp_R(t) > texp_S(t)}`, the set the
//!   paper says "causes recomputations to happen"), and aggregations
//!   contribute their input sizes (each expiry may change a value).
//!
//! [`Stats`] summarises the relations a plan names (live cardinalities and per-attribute
//! distinct counts); [`estimate`] folds an expression over it;
//! [`choose`] picks the best of several equivalent plans, fragility
//! first. The estimator uses the textbook independence/containment
//! heuristics — it is deliberately simple, deterministic, and fast.

use crate::algebra::Expr;
use crate::catalog::Bindings;
use crate::predicate::{CmpOp, Operand, Predicate};
use crate::time::Time;
use crate::value::Value;
use std::collections::{HashMap, HashSet};

/// Default selectivity of a non-equality comparison.
const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Assumed fraction of shared tuples whose `texp_R > texp_S` (critical).
const CRITICAL_FRACTION: f64 = 0.5;

/// Per-relation statistics: live cardinality and per-attribute number of
/// distinct values (NDV).
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Live rows at the statistics snapshot time.
    pub rows: f64,
    /// Distinct values per attribute position.
    pub ndv: Vec<f64>,
}

/// Catalog-level statistics snapshot.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    tables: HashMap<String, TableStats>,
}

impl Stats {
    /// Collects statistics at time `τ` for the base relations `expr`
    /// names: one visit each, copying no row — only each attribute's
    /// distinct values. A name `catalog` does not bind gets no entry;
    /// evaluation reports it.
    #[must_use]
    pub fn collect(expr: &Expr, catalog: &dyn Bindings, tau: Time) -> Stats {
        let mut tables = HashMap::new();
        for name in expr.base_names() {
            let Ok(schema) = catalog.schema(&name) else {
                continue;
            };
            let mut rows = 0.0;
            let mut distinct: Vec<HashSet<Value>> = vec![HashSet::new(); schema.arity()];
            let visited = catalog.visit(&name, tau, &mut |t, _| {
                rows += 1.0;
                for (set, v) in distinct.iter_mut().zip(t.values()) {
                    if !set.contains(v) {
                        set.insert(v.clone());
                    }
                }
                false
            });
            if visited.is_err() {
                continue;
            }
            tables.insert(
                name.to_ascii_lowercase(),
                TableStats {
                    rows,
                    ndv: distinct.iter().map(|s| s.len().max(1) as f64).collect(),
                },
            );
        }
        Stats { tables }
    }

    fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(&name.to_ascii_lowercase())
    }
}

/// The estimated cost of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Estimated output cardinality.
    pub out_rows: f64,
    /// Estimated total rows produced across all operators (work proxy).
    pub work: f64,
    /// Estimated recomputation pressure: Σ critical-set estimates over
    /// differences + Σ input sizes over aggregations. Zero for monotonic
    /// plans (Theorem 1: they never recompute).
    pub fragility: f64,
}

/// A node-level estimate: output rows plus per-attribute NDVs, threaded
/// bottom-up.
struct NodeEst {
    rows: f64,
    ndv: Vec<f64>,
}

fn predicate_selectivity(p: &Predicate, ndv: &[f64]) -> f64 {
    match p {
        Predicate::True => 1.0,
        Predicate::False => 0.0,
        Predicate::Cmp { left, op, right } => {
            let distinct = |o: &Operand| match o {
                Operand::Attr(i) => ndv.get(*i).copied().unwrap_or(1.0),
                Operand::Const(_) => 1.0,
            };
            match op {
                CmpOp::Eq => 1.0 / distinct(left).max(distinct(right)),
                CmpOp::Ne => 1.0 - 1.0 / distinct(left).max(distinct(right)),
                _ => RANGE_SELECTIVITY,
            }
        }
        Predicate::And(a, b) => predicate_selectivity(a, ndv) * predicate_selectivity(b, ndv),
        Predicate::Or(a, b) => {
            let (sa, sb) = (predicate_selectivity(a, ndv), predicate_selectivity(b, ndv));
            (sa + sb - sa * sb).min(1.0)
        }
        Predicate::Not(a) => 1.0 - predicate_selectivity(a, ndv),
    }
}

fn scale_ndv(ndv: &[f64], factor: f64) -> Vec<f64> {
    // Distinct counts shrink sublinearly with cardinality; the common
    // min(ndv, rows') approximation.
    ndv.iter().map(|d| (d * factor.sqrt()).max(1.0)).collect()
}

fn estimate_rec(expr: &Expr, stats: &Stats, acc: &mut PlanCost) -> NodeEst {
    let node = match expr {
        Expr::Base(name) => match stats.table(name) {
            Some(t) => NodeEst {
                rows: t.rows,
                ndv: t.ndv.clone(),
            },
            None => NodeEst {
                rows: 1.0,
                ndv: vec![1.0],
            },
        },
        Expr::Select { input, predicate } => {
            let i = estimate_rec(input, stats, acc);
            let sel = predicate_selectivity(predicate, &i.ndv);
            NodeEst {
                rows: i.rows * sel,
                ndv: scale_ndv(&i.ndv, sel),
            }
        }
        Expr::Project { input, positions } => {
            let i = estimate_rec(input, stats, acc);
            let ndv: Vec<f64> = positions
                .iter()
                .map(|&j| i.ndv.get(j).copied().unwrap_or(1.0))
                .collect();
            // Set semantics: output bounded by the product of kept NDVs.
            let distinct_bound: f64 = ndv.iter().product::<f64>().max(1.0);
            NodeEst {
                rows: i.rows.min(distinct_bound),
                ndv,
            }
        }
        Expr::Product { left, right } => {
            let l = estimate_rec(left, stats, acc);
            let r = estimate_rec(right, stats, acc);
            let mut ndv = l.ndv.clone();
            ndv.extend_from_slice(&r.ndv);
            NodeEst {
                rows: l.rows * r.rows,
                ndv,
            }
        }
        Expr::Join {
            left,
            right,
            predicate,
        } => {
            let l = estimate_rec(left, stats, acc);
            let r = estimate_rec(right, stats, acc);
            let mut ndv = l.ndv.clone();
            ndv.extend_from_slice(&r.ndv);
            let sel = predicate_selectivity(predicate, &ndv);
            let rows = l.rows * r.rows * sel;
            NodeEst {
                rows,
                ndv: scale_ndv(&ndv, sel),
            }
        }
        Expr::Union { left, right } => {
            let l = estimate_rec(left, stats, acc);
            let r = estimate_rec(right, stats, acc);
            let ndv = l
                .ndv
                .iter()
                .zip(r.ndv.iter())
                .map(|(a, b)| a.max(*b))
                .collect();
            NodeEst {
                rows: l.rows + r.rows,
                ndv,
            }
        }
        Expr::Intersect { left, right } => {
            let l = estimate_rec(left, stats, acc);
            let r = estimate_rec(right, stats, acc);
            let ndv = l
                .ndv
                .iter()
                .zip(r.ndv.iter())
                .map(|(a, b)| a.min(*b))
                .collect();
            NodeEst {
                rows: l.rows.min(r.rows) / 2.0,
                ndv,
            }
        }
        Expr::Difference { left, right } => {
            let l = estimate_rec(left, stats, acc);
            let r = estimate_rec(right, stats, acc);
            // Containment assumption: the overlap is about half the
            // smaller side; half of it is critical.
            let overlap = l.rows.min(r.rows) / 2.0;
            acc.fragility += overlap * CRITICAL_FRACTION;
            NodeEst {
                rows: (l.rows - overlap).max(0.0),
                ndv: l.ndv,
            }
        }
        Expr::Aggregate {
            input, group_by, ..
        } => {
            let i = estimate_rec(input, stats, acc);
            // Every input expiry can change a value.
            acc.fragility += i.rows;
            let group_ndv: f64 = group_by
                .iter()
                .map(|&j| i.ndv.get(j).copied().unwrap_or(1.0))
                .product::<f64>()
                .max(1.0);
            let mut ndv = i.ndv.clone();
            ndv.push(i.rows.min(group_ndv)); // the aggregate column
            NodeEst {
                // Klug-style output keeps every input tuple.
                rows: i.rows,
                ndv,
            }
        }
    };
    acc.work += node.rows;
    node
}

/// Estimates a plan against statistics.
#[must_use]
pub fn estimate(expr: &Expr, stats: &Stats) -> PlanCost {
    let mut acc = PlanCost {
        out_rows: 0.0,
        work: 0.0,
        fragility: 0.0,
    };
    let node = estimate_rec(expr, stats, &mut acc);
    acc.out_rows = node.rows;
    acc
}

/// Picks the cheapest of several semantically equivalent plans:
/// fragility first (recomputation is the dominant cost in loosely-coupled
/// deployments — paper Section 1), work as the tiebreaker.
///
/// # Panics
///
/// Panics on an empty candidate slice.
#[must_use]
pub fn choose<'a>(candidates: &'a [Expr], stats: &Stats) -> &'a Expr {
    assert!(!candidates.is_empty(), "choose needs at least one plan");
    candidates
        .iter()
        .min_by(|a, b| {
            let ca = estimate(a, stats);
            let cb = estimate(b, stats);
            ca.fragility
                .total_cmp(&cb.fragility)
                .then(ca.work.total_cmp(&cb.work))
        })
        .expect("non-empty")
}

/// Rewrites `expr` and keeps the rewritten plan only if the cost model
/// prefers it — Section 3.1's "estimate the impact of a rewrite-rule
/// application" made concrete. (The rewriter is semantics-preserving, so
/// this is purely a cost decision; with pushed-down selections the
/// rewritten plan is nearly always at most as fragile.)
#[must_use]
pub fn optimize(expr: &Expr, catalog: &dyn Bindings, tau: Time) -> Expr {
    let stats = Stats::collect(expr, catalog, tau);
    let rewritten = crate::rewrite::rewrite(expr);
    let candidates = [expr.clone(), rewritten];
    choose(&candidates, &stats).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::eval;
    use crate::algebra::EvalOptions;
    use crate::catalog::Catalog;
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;

    fn catalog(rows_r: usize, rows_s: usize) -> Catalog {
        let schema = Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let mut c = Catalog::new();
        let mut r = Relation::new(schema.clone());
        for i in 0..rows_r {
            r.insert(tuple![i as i64, (i % 10) as i64], Time::new(100 + i as u64))
                .unwrap();
        }
        let mut s = Relation::new(schema);
        for i in 0..rows_s {
            s.insert(tuple![i as i64, (i % 10) as i64], Time::new(1 + i as u64))
                .unwrap();
        }
        c.register("r", r);
        c.register("s", s);
        c
    }

    /// Statistics for both relations of [`catalog`].
    fn stats_of(c: &Catalog, tau: Time) -> Stats {
        Stats::collect(&Expr::base("R").union(Expr::base("s")), c, tau)
    }

    #[test]
    fn stats_collection() {
        let c = catalog(100, 40);
        let stats = stats_of(&c, Time::ZERO);
        let r = stats.table("R").unwrap();
        assert_eq!(r.rows, 100.0);
        assert_eq!(r.ndv[0], 100.0, "k is unique");
        assert_eq!(r.ndv[1], 10.0, "v has 10 distinct values");
        assert!(stats.table("missing").is_none());
        // Stats respect τ: at time 20 some s rows have expired.
        let later = stats_of(&c, Time::new(20));
        assert!(later.table("s").unwrap().rows < 40.0);
        // Only what the expression names is scanned.
        let only_r = Stats::collect(&Expr::base("r"), &c, Time::ZERO);
        assert!(only_r.table("r").is_some() && only_r.table("s").is_none());
    }

    #[test]
    fn selection_estimates_track_reality_in_order() {
        let c = catalog(1000, 10);
        let stats = stats_of(&c, Time::ZERO);
        let eq_unique = Expr::base("r").select(Predicate::attr_eq_const(0, 5));
        let eq_coarse = Expr::base("r").select(Predicate::attr_eq_const(1, 5));
        let range = Expr::base("r").select(Predicate::attr_cmp_const(0, CmpOp::Lt, 500));
        let all = Expr::base("r");
        let est = |e: &Expr| estimate(e, &stats).out_rows;
        // Ordering (not absolute accuracy) is what plan choice needs.
        assert!(est(&eq_unique) < est(&eq_coarse));
        assert!(est(&eq_coarse) < est(&range));
        assert!(est(&range) < est(&all));
        // Sanity on magnitudes.
        assert!((est(&eq_unique) - 1.0).abs() < 0.5);
        assert!((est(&eq_coarse) - 100.0).abs() < 1.0);
    }

    #[test]
    fn monotonic_plans_have_zero_fragility() {
        let c = catalog(100, 100);
        let stats = stats_of(&c, Time::ZERO);
        let plan = Expr::base("r")
            .join(Expr::base("s"), Predicate::attr_eq_attr(0, 2))
            .project([0, 1])
            .union(Expr::base("r"));
        assert!(plan.is_monotonic());
        assert_eq!(estimate(&plan, &stats).fragility, 0.0);
    }

    #[test]
    fn non_monotonic_plans_accumulate_fragility() {
        let c = catalog(100, 100);
        let stats = stats_of(&c, Time::ZERO);
        let diff = Expr::base("r").difference(Expr::base("s"));
        let agg = Expr::base("r").aggregate([1], crate::aggregate::AggFunc::Count);
        let both = diff.clone().union(agg.clone());
        let f = |e: &Expr| estimate(e, &stats).fragility;
        assert!(f(&diff) > 0.0);
        assert!(f(&agg) > 0.0);
        assert!((f(&both) - (f(&diff) + f(&agg))).abs() < 1e-9);
    }

    #[test]
    fn pushed_down_selection_is_less_fragile() {
        let c = catalog(1000, 1000);
        let stats = stats_of(&c, Time::ZERO);
        let original = Expr::base("r")
            .difference(Expr::base("s"))
            .select(Predicate::attr_eq_const(1, 3));
        let rewritten = crate::rewrite::rewrite(&original);
        let co = estimate(&original, &stats);
        let cr = estimate(&rewritten, &stats);
        assert!(
            cr.fragility < co.fragility,
            "pushed-down: {} < {}",
            cr.fragility,
            co.fragility
        );
        assert_eq!(choose(&[original, rewritten.clone()], &stats), &rewritten);
    }

    #[test]
    fn optimize_keeps_semantics_and_prefers_the_rewrite() {
        let c = catalog(200, 200);
        let original = Expr::base("r")
            .difference(Expr::base("s"))
            .select(Predicate::attr_eq_const(1, 3));
        let chosen = optimize(&original, &c, Time::ZERO);
        assert_ne!(chosen, original, "rewrite preferred");
        for tau in [0u64, 5, 50] {
            let a = eval(&original, &c, Time::new(tau), &EvalOptions::default()).unwrap();
            let b = eval(&chosen, &c, Time::new(tau), &EvalOptions::default()).unwrap();
            assert!(a.rel.set_eq(&b.rel), "at {tau}");
        }
    }

    #[test]
    fn optimize_is_identity_when_nothing_improves() {
        let c = catalog(50, 50);
        let plan = Expr::base("r").join(Expr::base("s"), Predicate::attr_eq_attr(0, 2));
        assert_eq!(optimize(&plan, &c, Time::ZERO), plan);
    }

    use crate::predicate::CmpOp;
}
