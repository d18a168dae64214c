//! Evaluation of algebra expressions into materialised results.
//!
//! [`eval`] materialises an expression `e` against its [`Bindings`] at a
//! time `τ`, producing a [`Materialized`]:
//!
//! * the result relation, each tuple carrying the expiration time the
//!   paper's operator definitions assign;
//! * `texp(e)` — the expression's expiration time, "a lower bound on the
//!   time when the materialised expression is no longer correct due to
//!   expiration of underlying tuples" (Section 2.2). For monotonic
//!   expressions this is `∞` (Theorem 1); for aggregation and difference it
//!   follows Section 2.6;
//! * `I(e)` — the Schrödinger validity interval set (Section 3.4): the
//!   instants at which the materialised result, expired forward, equals a
//!   fresh recomputation;
//! * optionally a [`PatchQueue`] that makes a root-level difference
//!   eternally maintainable (Theorem 3).
//!
//! Every operator is one `ops::` call over its materialised inputs, with
//! three exceptions that exist so a row that does not come out is never
//! copied. A fragment `π? σ* Base` — a bare `Base` included — runs as a
//! single pass over the rows [`Bindings::visit`] lends (`eval_leaf` over a
//! `Scan`): each row is tested in place and only survivors are inserted.
//! `σ_p(L × R)` runs as `L ⋈_p R`, which is Equation 5 read right to left,
//! so the product is never built. And an aggregation groups its input
//! exactly once (`eval_aggregate`): straight from the same `Scan` when the
//! input is `σ* Base`, so no input relation is built, and under a π onto
//! grouping attributes and the aggregate column — what a single-aggregate
//! `GROUP BY` plans to — it emits one row per group, so the Klug rows of
//! Equation 8 are not built either. All three report to the probe as the
//! operators they stand for.

use crate::aggregate::AggMode;
use crate::algebra::expr::Expr;
use crate::algebra::ops::{self, Aggregation};
use crate::catalog::Bindings;
use crate::error::Result;
use crate::interval::{Interval, IntervalSet};
use crate::patch::PatchQueue;
use crate::predicate::Predicate;
use crate::relation::{DuplicatePolicy, Relation};
use crate::schema::Schema;
use crate::time::Time;
use crate::tuple::Tuple;

/// Options controlling evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// How aggregation result tuples get their expiration times
    /// (default [`AggMode::Exact`]).
    pub agg_mode: AggMode,
    /// If the expression's *root* is a difference, build the Theorem 3
    /// patch queue: the result then has `texp(e)` independent of critical
    /// tuples and is maintained by applying due patches instead of
    /// recomputation. (Patching an inner difference would require
    /// propagating insertions through the operators above it — classic
    /// incremental view maintenance, out of the paper's scope; the paper's
    /// Section 3.1 instead suggests *pulling up* non-monotonic operators,
    /// which the rewriter implements.)
    pub patch_root_difference: bool,
    /// Bound on the Theorem 3 patch queue. The paper (Section 3.4.2)
    /// notes that sizing the queue "is a classic trade-off decision
    /// between saving future communication and time/space": with a cap,
    /// only the `k` earliest-reappearing critical tuples are queued, and
    /// the expression's `texp(e)` is the reappearance time of the first
    /// critical tuple that did NOT fit — the view patches locally until
    /// then, then recomputes (rebuilding the queue). `None` queues
    /// everything (full Theorem 3: `texp(e)` independent of critical
    /// tuples).
    pub patch_queue_cap: Option<usize>,
    /// Use the coarse Equation 12 validity for differences instead of the
    /// exact per-tuple holes. The exact set is a superset; Equation 12 is
    /// kept for paper-faithful comparison (experiment E7).
    pub eq12_validity: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            agg_mode: AggMode::Exact,
            patch_root_difference: false,
            patch_queue_cap: None,
            eq12_validity: false,
        }
    }
}

/// A materialised expression: the result of [`eval`].
#[derive(Debug, Clone)]
pub struct Materialized {
    /// The result relation with per-tuple expiration times.
    pub rel: Relation,
    /// The time `τ` at which the expression was materialised.
    pub at: Time,
    /// `texp(e)`: the expression expires — becomes potentially incorrect
    /// under pure expiration — at this time. `∞` for monotonic
    /// expressions.
    pub texp: Time,
    /// `I(e)`: the Schrödinger validity intervals, a subset of `[τ, ∞[`.
    /// `[τ, texp(e)[` is always covered.
    pub validity: IntervalSet,
    /// The Theorem 3 patch queue, present only when
    /// [`EvalOptions::patch_root_difference`] was set and the root is a
    /// difference.
    pub patches: Option<PatchQueue>,
}

impl Materialized {
    /// Whether the materialisation, expired forward, is still guaranteed
    /// correct at `t` under the single-expiration-time model
    /// (`t < texp(e)`).
    #[must_use]
    pub fn fresh_at(&self, t: Time) -> bool {
        t >= self.at && t < self.texp
    }

    /// Whether the materialisation is correct at `t` under Schrödinger
    /// semantics (validity intervals).
    #[must_use]
    pub fn valid_at(&self, t: Time) -> bool {
        self.validity.contains(t)
    }

    /// The result as seen at `t ≥ at`: `expₜ` of the rows, plus every
    /// queued patch whose tuple is in the result at `t` — Theorem 3's
    /// materialisation is its rows *and* its helper queue. This is the
    /// one way rows leave a materialisation, and it is a pure function:
    /// a read that consumed the queue could not be asked about an earlier
    /// instant afterwards (a query moved forward, then the next one).
    /// Draining and eager removal are physical maintenance
    /// ([`MaterializedView::maintain`](crate::materialize::MaterializedView::maintain))
    /// and change no answer at or after the instant they ran at.
    ///
    /// # Panics
    ///
    /// Panics if a queued tuple does not match the result schema — a
    /// queue/result mismatch is a logic error, not user input.
    #[must_use]
    pub fn rows_at(&self, t: Time) -> Relation {
        let mut rows = self.rel.exp(t);
        // One peek when nothing is due, which is every read of a
        // maintained view: `maintain` has just drained the queue to `t`.
        let queue = self.patches.as_ref();
        let due = queue.filter(|q| q.next_due().is_some_and(|next| next <= t));
        for patch in due.into_iter().flat_map(|q| q.due_at(t)) {
            let (tuple, texp) = (patch.tuple.clone(), patch.disappears_at);
            rows.insert_with(tuple, texp, DuplicatePolicy::Replace)
                .expect("patch tuple must match result schema");
        }
        rows
    }

    /// The instant a query at `τ` can be answered for without the base
    /// relations (Sections 3.3–3.4): `τ` itself inside `I(e)`, else the
    /// latest covered instant before it — the query moved backward — and
    /// `None` when the materialisation covers neither.
    #[must_use]
    pub fn covered_at(&self, tau: Time) -> Option<Time> {
        // `prev_covered` is `τ` itself when `τ` is covered.
        let back = self.validity.prev_covered(tau)?;
        (back >= self.at).then_some(back)
    }

    /// Answers a query at `τ` from the materialisation alone: the rows and
    /// the instant they are correct for ([`Materialized::covered_at`]).
    #[must_use]
    pub fn answer(&self, tau: Time) -> Option<(Relation, Time)> {
        self.covered_at(tau).map(|t| (self.rows_at(t), t))
    }
}

/// What the one evaluator tells an observer, per operator: `enter` before
/// the operator's inputs are evaluated, `leave` once its own result
/// exists. Calls nest exactly like the expression, so an implementation
/// can rebuild the operator tree with a stack. There are two: [`NoProbe`]
/// (every call is an empty inline body, so `eval` compiles to the bare
/// recursion) and the `PlanProfile` recorder behind
/// [`eval_profiled`](crate::algebra::profile::eval_profiled).
pub(crate) trait Probe {
    fn enter(&mut self);
    /// `expired_filtered` is non-zero only at `Base` leaves: physically
    /// present tuples the scan skipped because `texp ≤ τ`.
    fn leave(&mut self, expr: &Expr, rows_out: usize, expired_filtered: usize, texp: Time);
}

/// The probe that observes nothing.
pub(crate) struct NoProbe;

impl Probe for NoProbe {
    #[inline]
    fn enter(&mut self) {}
    #[inline]
    fn leave(&mut self, _: &Expr, _: usize, _: usize, _: Time) {}
}

struct Sub {
    rel: Relation,
    texp: Time,
    validity: IntervalSet,
}

/// A fragment `σ* Base`: the one place base rows enter an evaluation, as
/// a single pass over the rows `catalog` lends.
struct Scan<'a> {
    base: &'a Expr,
    name: &'a str,
    /// Outermost first.
    selects: Vec<(&'a Expr, &'a Predicate)>,
}

impl<'a> Scan<'a> {
    /// `None` unless `node` has the shape `σ* Base`.
    fn of(mut node: &'a Expr) -> Option<Self> {
        let mut selects = Vec::new();
        while let Expr::Select { input, predicate } = node {
            selects.push((node, predicate));
            node = input;
        }
        match node {
            Expr::Base(name) => Some(Scan {
                base: node,
                name,
                selects,
            }),
            _ => None,
        }
    }

    /// Enters every operator of the fragment and resolves its schema,
    /// raising errors in the order the unfused operators do: the base,
    /// then each σ from the inside out.
    fn open<P: Probe>(&self, catalog: &dyn Bindings, probe: &mut P) -> Result<Schema> {
        for _ in 0..=self.selects.len() {
            probe.enter();
        }
        let schema = catalog.schema(self.name)?;
        for (_, p) in self.selects.iter().rev() {
            p.validate(schema.arity())?;
        }
        Ok(schema)
    }

    /// Equation 1 applied row by row: `keep` is handed each visible row
    /// that passes every σ — a row that fails one is never copied — and
    /// the probe hears the operators with the counts they would have had
    /// unfused: the `Base` its visible and expired-but-present rows, each
    /// σ the rows that passed it.
    fn run<P: Probe>(
        &self,
        catalog: &dyn Bindings,
        tau: Time,
        probe: &mut P,
        keep: &mut dyn FnMut(&Tuple, Time) -> Result<()>,
    ) -> Result<()> {
        let mut passed = vec![0; self.selects.len()];
        let mut visible = 0;
        let mut failed = None;
        let skipped = catalog.visit(self.name, tau, &mut |t, e| {
            visible += 1;
            for ((_, p), n) in self.selects.iter().zip(&mut passed).rev() {
                if !p.eval(t) {
                    return false;
                }
                *n += 1;
            }
            if let Err(err) = keep(t, e) {
                failed.get_or_insert(err);
            }
            true
        })?;
        if let Some(err) = failed {
            return Err(err);
        }
        // "The expiration time of a base relation is defined to be
        // infinity", and σ passes its input's on.
        probe.leave(self.base, visible, skipped, Time::INFINITY);
        for ((select, _), n) in self.selects.iter().zip(&passed).rev() {
            probe.leave(select, *n, 0, Time::INFINITY);
        }
        Ok(())
    }
}

/// Evaluates `expr` if it has the shape `π? σ* Base` — what a
/// single-table `SELECT` plans to, a bare `Base` being the degenerate
/// case — in one pass; `None` for any other shape. A survivor keeps its
/// `texp`, and survivors that coincide under the projection keep the
/// maximum (Equation 3); the π reports its distinct output and raises its
/// error after the σs'.
fn eval_leaf<P: Probe>(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    probe: &mut P,
) -> Result<Option<Relation>> {
    let (positions, node) = match expr {
        Expr::Project { input, positions } => (Some(positions.as_slice()), &**input),
        _ => (None, expr),
    };
    let Some(scan) = Scan::of(node) else {
        return Ok(None);
    };
    if positions.is_some() {
        probe.enter();
    }
    let schema = scan.open(catalog, probe)?;
    let mut out = Relation::new(match positions {
        Some(ps) => schema.project(ps)?,
        None => schema,
    });
    scan.run(catalog, tau, probe, &mut |t, e| match positions {
        // KeepMax is exactly Equation 3's max over coinciding tuples.
        Some(ps) => out.insert_with(t.project(ps), e, DuplicatePolicy::KeepMax),
        None => out.insert(t.clone(), e),
    })?;
    if positions.is_some() {
        probe.leave(expr, out.len(), 0, Time::INFINITY);
    }
    Ok(Some(out))
}

/// Evaluates `expr` if it has the shape `π? aggexp(e)`; `None` for any
/// other shape. The input is grouped exactly once ([`Aggregation`]) — from
/// the lent rows of a [`Scan`] when `e` is `σ* Base`, so no input relation
/// is built, else from `e`'s result — and rows, `texp(e)` and validity
/// all come from that one grouping. A π directly above is handed down:
/// `GROUP BY` output is then emitted one row per group. The aggregation
/// reports the Klug cardinality it stands for, built or not, and errors
/// keep the unfused order: the input's, the aggregation's, then the π's.
fn eval_aggregate<P: Probe>(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    probe: &mut P,
) -> Result<Option<Sub>> {
    let (positions, node) = match expr {
        Expr::Project { input, positions } => (Some(positions.as_slice()), &**input),
        _ => (None, expr),
    };
    let Expr::Aggregate {
        input,
        group_by,
        func,
    } = node
    else {
        return Ok(None);
    };
    for _ in 0..=usize::from(positions.is_some()) {
        probe.enter();
    }
    let (out, texp, validity) = match Scan::of(input) {
        Some(scan) => {
            let schema = scan.open(catalog, probe)?;
            let mut agg = Aggregation::new(&schema, group_by, *func, opts.agg_mode, tau)?;
            scan.run(catalog, tau, probe, &mut |t, e| {
                agg.push(t, e);
                Ok(())
            })?;
            let all = IntervalSet::from_time(tau);
            (agg.finish(positions)?, Time::INFINITY, all)
        }
        None => {
            let i = eval_rec(input, catalog, tau, opts, probe)?;
            let mut agg = Aggregation::new(i.rel.schema(), group_by, *func, opts.agg_mode, tau)?;
            for (t, e) in i.rel.iter_at(tau) {
                agg.push(t, e);
            }
            (agg.finish(positions)?, i.texp, i.validity)
        }
    };
    let texp = texp.min(out.meta.texp);
    probe.leave(node, out.klug_rows, 0, texp);
    if positions.is_some() {
        probe.leave(expr, out.rel.len(), 0, texp);
    }
    Ok(Some(Sub {
        rel: out.rel,
        texp,
        validity: validity.intersect(&out.meta.validity),
    }))
}

/// Equation 5 in both its spellings: `L ⋈_p R`, and `σ_p(L × R)` read
/// right to left, whose `product` node is reported to the probe (its
/// cardinality is `|L|·|R|`) but never built.
fn eval_join<P: Probe>(
    (left, right): (&Expr, &Expr),
    predicate: &Predicate,
    product: Option<&Expr>,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    probe: &mut P,
) -> Result<Sub> {
    if product.is_some() {
        probe.enter();
    }
    let l = eval_rec(left, catalog, tau, opts, probe)?;
    let r = eval_rec(right, catalog, tau, opts, probe)?;
    let texp = l.texp.min(r.texp);
    if let Some(product) = product {
        let pairs = l
            .rel
            .count_unexpired(tau)
            .saturating_mul(r.rel.count_unexpired(tau));
        probe.leave(product, pairs, 0, texp);
    }
    Ok(Sub {
        rel: ops::join(&l.rel, &r.rel, predicate, tau)?,
        texp,
        validity: l.validity.intersect(&r.validity),
    })
}

fn eval_rec<P: Probe>(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    probe: &mut P,
) -> Result<Sub> {
    if let Some(rel) = eval_leaf(expr, catalog, tau, probe)? {
        return Ok(Sub {
            rel,
            texp: Time::INFINITY,
            validity: IntervalSet::from_time(tau),
        });
    }
    if let Some(sub) = eval_aggregate(expr, catalog, tau, opts, probe)? {
        return Ok(sub);
    }
    probe.enter();
    let sub = match expr {
        Expr::Base(_) => unreachable!("a Base is a leaf"),
        Expr::Select { input, predicate } => match &**input {
            Expr::Product { left, right } => {
                let product = Some(&**input);
                eval_join((left, right), predicate, product, catalog, tau, opts, probe)?
            }
            _ => {
                let i = eval_rec(input, catalog, tau, opts, probe)?;
                Sub {
                    rel: ops::select(&i.rel, predicate, tau)?,
                    texp: i.texp,
                    validity: i.validity,
                }
            }
        },
        Expr::Project { input, positions } => {
            let i = eval_rec(input, catalog, tau, opts, probe)?;
            Sub {
                rel: ops::project(&i.rel, positions, tau)?,
                texp: i.texp,
                validity: i.validity,
            }
        }
        Expr::Product { left, right } => {
            let l = eval_rec(left, catalog, tau, opts, probe)?;
            let r = eval_rec(right, catalog, tau, opts, probe)?;
            Sub {
                rel: ops::product(&l.rel, &r.rel, tau)?,
                texp: l.texp.min(r.texp),
                validity: l.validity.intersect(&r.validity),
            }
        }
        Expr::Union { left, right } => {
            let l = eval_rec(left, catalog, tau, opts, probe)?;
            let r = eval_rec(right, catalog, tau, opts, probe)?;
            Sub {
                rel: ops::union(&l.rel, &r.rel, tau)?,
                texp: l.texp.min(r.texp),
                validity: l.validity.intersect(&r.validity),
            }
        }
        Expr::Join {
            left,
            right,
            predicate,
        } => eval_join((left, right), predicate, None, catalog, tau, opts, probe)?,
        Expr::Intersect { left, right } => {
            let l = eval_rec(left, catalog, tau, opts, probe)?;
            let r = eval_rec(right, catalog, tau, opts, probe)?;
            Sub {
                rel: ops::intersect(&l.rel, &r.rel, tau)?,
                texp: l.texp.min(r.texp),
                validity: l.validity.intersect(&r.validity),
            }
        }
        Expr::Difference { left, right } => {
            let l = eval_rec(left, catalog, tau, opts, probe)?;
            let r = eval_rec(right, catalog, tau, opts, probe)?;
            let meta = ops::difference_meta(&l.rel, &r.rel, tau);
            let own_validity = if opts.eq12_validity {
                meta.validity_eq12
            } else {
                meta.validity
            };
            Sub {
                rel: ops::difference(&l.rel, &r.rel, tau)?,
                // Equation 11 (with the texp_S reading; see
                // `DifferenceMeta::texp`): min of argument expirations and
                // the first critical reappearance.
                texp: l.texp.min(r.texp).min(meta.texp),
                validity: l.validity.intersect(&r.validity).intersect(&own_validity),
            }
        }
        Expr::Aggregate { .. } => unreachable!("an aggregation is evaluated above"),
    };
    probe.leave(expr, sub.rel.len(), 0, sub.texp);
    Ok(sub)
}

/// Theorem 3 root handling: materialises a root-level difference with a
/// patch queue, so the result never expires on account of critical tuples.
///
/// # Panics
///
/// `expr` must be a difference; the caller matches first.
fn eval_patched_root<P: Probe>(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    probe: &mut P,
) -> Result<Materialized> {
    let Expr::Difference { left, right } = expr else {
        unreachable!("eval_patched_root requires a root-level difference")
    };
    probe.enter();
    let l = eval_rec(left, catalog, tau, opts, probe)?;
    let r = eval_rec(right, catalog, tau, opts, probe)?;
    let rel = ops::difference(&l.rel, &r.rel, tau)?;
    let mut critical = ops::critical_tuples(&l.rel, &r.rel, tau);
    critical.sort_by_key(|c| c.appears_at);
    // Bounded queue: keep the k earliest reappearances. A critical tuple
    // that did not fit is missing from the result for as long as it
    // should be in it: the first one caps texp(e) (the view must recompute
    // then) and each leaves its hole in I(e), as in an unpatched
    // difference.
    let mut own_texp = Time::INFINITY;
    let mut validity = l.validity.intersect(&r.validity);
    if let Some(cap) = opts.patch_queue_cap {
        if critical.len() > cap {
            own_texp = critical[cap].appears_at;
            let dropped = critical.drain(cap..);
            let holes = dropped.map(|c| Interval::new(c.appears_at, c.disappears_at));
            validity = validity.subtract(&IntervalSet::from_intervals(holes.collect()));
        }
    }
    let queue = PatchQueue::from_critical(critical);
    let texp = l.texp.min(r.texp).min(own_texp);
    probe.leave(expr, rel.len(), 0, texp);
    Ok(Materialized {
        rel,
        at: tau,
        texp,
        validity,
        patches: Some(queue),
    })
}

/// [`eval`] under an observer: the single entry into the recursion, shared
/// with [`eval_profiled`](crate::algebra::profile::eval_profiled).
pub(crate) fn eval_probed<P: Probe>(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
    probe: &mut P,
) -> Result<Materialized> {
    // Theorem 3: a root-level difference with patching enabled keeps a
    // helper queue and never expires on account of critical tuples.
    if opts.patch_root_difference {
        if let Expr::Difference { .. } = expr {
            return eval_patched_root(expr, catalog, tau, opts, probe);
        }
    }
    let sub = eval_rec(expr, catalog, tau, opts, probe)?;
    Ok(Materialized {
        rel: sub.rel,
        at: tau,
        texp: sub.texp,
        validity: sub.validity,
        patches: None,
    })
}

/// Materialises `expr` against `catalog` at time `τ`.
///
/// # Errors
///
/// Returns schema/type errors (unknown relations, bad positions,
/// incompatible schemas, non-numeric aggregation).
pub fn eval(
    expr: &Expr,
    catalog: &dyn Bindings,
    tau: Time,
    opts: &EvalOptions,
) -> Result<Materialized> {
    eval_probed(expr, catalog, tau, opts, &mut NoProbe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::catalog::Catalog;
    use crate::predicate::Predicate;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    /// The Figure 1 catalog.
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
    fn monotonic_expressions_have_infinite_texp() {
        let c = catalog();
        let e = Expr::base("Pol")
            .join(Expr::base("El"), Predicate::attr_eq_attr(0, 2))
            .project([0, 1]);
        let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        assert_eq!(m.texp, Time::INFINITY);
        assert!(m.valid_at(t(1_000_000)));
        assert!(m.fresh_at(t(42)));
    }

    #[test]
    fn theorem_1_join_sweep() {
        // expτ′(e) = expτ′(expτ(e)) for the Figure 2(e-g) join.
        let c = catalog();
        let e = Expr::base("Pol").join(Expr::base("El"), Predicate::attr_eq_attr(0, 2));
        let m0 = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        for now in 0..20 {
            let now = t(now);
            let fresh = eval(&e, &c, now, &EvalOptions::default()).unwrap();
            assert!(
                m0.rel.set_eq_at(&fresh.rel, now),
                "Theorem 1 violated at {now}"
            );
        }
    }

    #[test]
    fn difference_texp_matches_figure_3() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        assert_eq!(m.texp, t(3), "invalid from time 3 onwards");
        assert_eq!(m.rel.len(), 1);
        assert!(m.rel.contains(&tuple![3]));
        assert!(m.valid_at(t(2)));
        assert!(!m.valid_at(t(4)));
        assert!(m.valid_at(t(15)), "valid again after all criticals expire");
    }

    #[test]
    fn theorem_2_materialisation_valid_before_texp() {
        let c = catalog();
        let exprs = vec![
            Expr::base("Pol")
                .project([0])
                .difference(Expr::base("El").project([0])),
            Expr::base("Pol").aggregate([1], AggFunc::Count),
            Expr::base("Pol")
                .aggregate([1], AggFunc::Count)
                .project([1, 2]),
        ];
        for e in exprs {
            let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
            let mut now = Time::ZERO;
            while now < m.texp && now < t(30) {
                let fresh = eval(&e, &c, now, &EvalOptions::default()).unwrap();
                assert!(
                    m.rel.tuples_eq_at(&fresh.rel, now),
                    "Theorem 2 violated for {e} at {now}:\nmat {:?}\nfresh {:?}",
                    m.rel.exp(now),
                    fresh.rel.exp(now),
                );
                now = now.succ();
            }
        }
    }

    #[test]
    fn aggregate_texp_flows_into_expression() {
        let c = catalog();
        let e = Expr::base("Pol")
            .aggregate([1], AggFunc::Count)
            .project([1, 2]);
        let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        // Figure 3(a): invalid from time 10 (count 25-group drops to 1).
        assert_eq!(m.texp, t(10));
        assert!(m.valid_at(t(9)));
        assert!(!m.valid_at(t(10)));
        assert!(m.valid_at(t(15)), "after total death, valid");
    }

    #[test]
    fn patched_root_difference_never_needs_recomputation() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let opts = EvalOptions {
            patch_root_difference: true,
            ..EvalOptions::default()
        };
        let m = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert_eq!(m.texp, Time::INFINITY, "Theorem 3");
        let q = m.patches.as_ref().expect("patch queue present");
        assert_eq!(q.len(), 2);
        // Sweep, then probe backwards: rows_at must equal a fresh
        // recomputation at every instant, in any order, because it leaves
        // the queue where it is.
        for now in (0..20).chain((0..20).rev()) {
            let now = t(now);
            let seen = m.rows_at(now);
            let fresh = eval(&e, &c, now, &EvalOptions::default()).unwrap();
            assert!(
                seen.set_eq_at(&fresh.rel, now),
                "patched view wrong at {now}: {seen:?} vs {:?}",
                fresh.rel
            );
        }
    }

    #[test]
    fn eq12_validity_is_subset_of_exact() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let exact = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        let coarse = eval(
            &e,
            &c,
            Time::ZERO,
            &EvalOptions {
                eq12_validity: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            coarse.validity.intersect(&exact.validity),
            coarse.validity,
            "Eq 12 ⊆ exact"
        );
    }

    #[test]
    fn validity_always_covers_up_to_texp() {
        let c = catalog();
        let exprs = vec![
            Expr::base("Pol")
                .project([0])
                .difference(Expr::base("El").project([0])),
            Expr::base("Pol").aggregate([1], AggFunc::Sum(0)),
            Expr::base("Pol").join(Expr::base("El"), Predicate::attr_eq_attr(0, 2)),
        ];
        for e in exprs {
            let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
            let mut now = Time::ZERO;
            while now < m.texp && now < t(40) {
                assert!(m.valid_at(now), "{e}: [τ, texp(e)[ must be valid at {now}");
                now = now.succ();
            }
        }
    }

    #[test]
    fn nested_non_monotonic_combines_texp() {
        let c = catalog();
        // (Pol − El-as-uid-rows) unioned with Pol: difference inside a
        // monotonic operator still caps the expression texp.
        let d = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let e = d.union(Expr::base("Pol").project([0]));
        let m = eval(&e, &c, Time::ZERO, &EvalOptions::default()).unwrap();
        assert_eq!(m.texp, t(3));
    }

    #[test]
    fn errors_propagate() {
        let c = catalog();
        assert!(eval(
            &Expr::base("missing"),
            &c,
            Time::ZERO,
            &EvalOptions::default()
        )
        .is_err());
        assert!(eval(
            &Expr::base("Pol").project([9]),
            &c,
            Time::ZERO,
            &EvalOptions::default()
        )
        .is_err());
    }

    #[test]
    fn bounded_patch_queue_caps_texp_at_first_dropped_critical() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        // Critical reappearances at 3 (⟨2⟩) and 5 (⟨1⟩). Cap 1 keeps the
        // earliest; texp(e) = 5, the dropped tuple's reappearance.
        let opts = EvalOptions {
            patch_root_difference: true,
            patch_queue_cap: Some(1),
            ..EvalOptions::default()
        };
        let m = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert_eq!(m.patches.as_ref().unwrap().len(), 1);
        assert_eq!(m.texp, t(5));
        // ⟨1⟩, which no patch brings back, is missing on [5, 10[ — and
        // only there, so the queued ⟨2⟩ is served on both sides of it.
        assert_eq!(m.covered_at(t(9)), Some(t(4)));
        assert_eq!(m.answer(t(4)).unwrap().0.len(), 2, "⟨3⟩ and ⟨2⟩");
        assert_eq!(m.answer(t(12)).unwrap().0.len(), 1, "⟨2⟩, until 15");
        // Cap 0: no queue benefit; texp(e) = 3, like the unpatched case.
        let opts = EvalOptions {
            patch_queue_cap: Some(0),
            ..opts
        };
        let m = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert_eq!(m.texp, t(3));
        // Cap ≥ |critical|: full Theorem 3.
        let opts = EvalOptions {
            patch_queue_cap: Some(10),
            ..opts
        };
        let m = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert_eq!(m.texp, Time::INFINITY);
    }

    #[test]
    fn bounded_patched_view_stays_correct_via_recompute_fallback() {
        let c = catalog();
        let e = Expr::base("Pol")
            .project([0])
            .difference(Expr::base("El").project([0]));
        let opts = EvalOptions {
            patch_root_difference: true,
            patch_queue_cap: Some(1),
            ..EvalOptions::default()
        };
        let mut view = crate::materialize::MaterializedView::new(
            e.clone(),
            &c,
            Time::ZERO,
            opts,
            crate::materialize::RefreshPolicy::Patch,
            crate::materialize::RemovalPolicy::Lazy,
        )
        .unwrap();
        for now in 0..20 {
            let got = view.read(&c, t(now)).unwrap();
            let fresh = eval(&e, &c, t(now), &EvalOptions::default()).unwrap();
            assert!(got.set_eq(&fresh.rel.exp(t(now))), "at {now}");
        }
        // Exactly one recomputation (at 5, when the un-queued critical
        // tuple reappeared); the queued one was patched for free.
        assert_eq!(view.stats().recomputations, 1);
        assert_eq!(view.stats().patches_applied, 1);
    }

    #[test]
    fn patch_option_ignored_for_non_difference_root() {
        let c = catalog();
        let e = Expr::base("Pol").project([0]);
        let opts = EvalOptions {
            patch_root_difference: true,
            ..EvalOptions::default()
        };
        let m = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert!(m.patches.is_none());
    }
}
