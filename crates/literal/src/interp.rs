//! The paper's definitions as an interpreter: every node of an `Expr` is
//! its one [`ops`] call over inputs that were built in full —
//! `Base` is `expτ(R)`, a `σ(×)` selects from a product that exists
//! (Equations 1–6, 10) — and an aggregation is Equations 7–9 over the
//! whole value timeline ([`value_timeline`]), sharing nothing with the
//! evaluator's grouping. Nothing is fused, so this is what the
//! evaluator's one-pass reads, its Equation 5 join and its grouped-once
//! aggregation are held to, intermediate by intermediate.

use crate::nu::value_timeline;
use crate::ops;
use exptime_core::aggregate::{self, neutral, AggFunc, AggMode, Row};
use exptime_core::algebra::Expr;
use exptime_core::catalog::Catalog;
use exptime_core::error::{Error, Result};
use exptime_core::interval::{Interval, IntervalSet};
use exptime_core::relation::Relation;
use exptime_core::time::Time;

/// One node evaluated literally, with its inputs.
#[derive(Debug)]
pub struct Literal {
    /// The node's result at `τ`.
    pub rel: Relation,
    /// `texp(e)` of the subexpression this node roots.
    pub texp: Time,
    /// `I(e)` of the subexpression this node roots.
    pub validity: IntervalSet,
    /// The node's inputs, evaluated the same way.
    pub inputs: Vec<Literal>,
}

/// The inputs of an operator, left to right (none for a `Base`).
#[must_use]
pub fn inputs(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Base(_) => vec![],
        Expr::Select { input, .. }
        | Expr::Project { input, .. }
        | Expr::Aggregate { input, .. } => vec![input],
        Expr::Product { left, right }
        | Expr::Union { left, right }
        | Expr::Join { left, right, .. }
        | Expr::Intersect { left, right }
        | Expr::Difference { left, right } => vec![left, right],
    }
}

/// Equations 7–9 read literally: partition (φexp), apply `f`, extend
/// every tuple with its partition's value (Klug), and take the whole
/// value timeline of each partition — `f` re-applied to a copy of the
/// survivors at every expiration time — to find when the value first
/// changes. Returns the rows, `texp` and validity.
fn literal_aggregate(
    input: &Relation,
    group_by: &[usize],
    f: AggFunc,
    mode: AggMode,
    tau: Time,
) -> Result<(Relation, Time, IntervalSet)> {
    let arity = input.arity();
    if let Some(&index) = group_by.iter().find(|&&j| j >= arity) {
        return Err(Error::AttributeOutOfRange { index, arity });
    }
    f.validate(arity)?;
    let ty = f.result_type(f.attribute().map(|i| input.schema().attr(i).ty));
    let mut out = Relation::new(input.schema().append(&f.to_string(), ty));
    let (mut texp, mut validity) = (Time::INFINITY, IntervalSet::from_time(tau));
    for (_, rows) in aggregate::partition(input, group_by, tau) {
        let timeline = value_timeline(tau, &rows, &mut |p: &[Row]| f.apply(p))?;
        let value = timeline[0].1.clone().expect("a partition is not empty");
        let changes = timeline.get(1).map_or(Time::INFINITY, |&(at, _)| at);
        let bound = match mode {
            AggMode::Naive => Time::min_of(rows.iter().map(|(_, e)| *e)).expect("not empty"),
            AggMode::Contributing => neutral::contributing_texp(&rows, f)?,
            AggMode::Exact => changes,
        };
        for (t, e) in &rows {
            out.insert(t.append(value.clone()), bound.min(*e))?;
        }
        // Wrong from the first change to a live value, or from the
        // instant the bound removes rows whose bases are still there;
        // right again once the partition is dead.
        let death = Time::max_of(rows.iter().map(|(_, e)| *e)).expect("not empty");
        let live_change = timeline.iter().skip(1).find(|(_, v)| v.is_some());
        let mut cut = live_change.map_or(Time::INFINITY, |&(at, _)| at);
        if rows.iter().any(|(_, e)| *e > bound) {
            cut = cut.min(bound);
        }
        texp = texp.min(cut);
        let mut ok = IntervalSet::single(Interval::new(tau, cut));
        if death.is_finite() {
            ok = ok.union(&IntervalSet::from_time(death));
        }
        validity = validity.intersect(&ok);
    }
    Ok((out, texp, validity))
}

/// Evaluates `expr` over `catalog` at `τ` literally, aggregations under
/// `mode`: the result, `texp(e)` and `I(e)` of every node.
///
/// # Errors
///
/// Returns the first error an operator raises, inputs left to right
/// before the node's own.
pub fn literal(expr: &Expr, catalog: &Catalog, tau: Time, mode: AggMode) -> Result<Literal> {
    let inputs = inputs(expr)
        .into_iter()
        .map(|input| literal(input, catalog, tau, mode))
        .collect::<Result<Vec<_>>>()?;
    let mut texp = Time::min_of(inputs.iter().map(|i| i.texp)).unwrap_or(Time::INFINITY);
    let mut validity = inputs
        .iter()
        .fold(IntervalSet::from_time(tau), |v, i| v.intersect(&i.validity));
    let of = |i: usize| &inputs[i].rel;
    let rel = match expr {
        Expr::Base(name) => catalog.get(name)?.exp(tau),
        Expr::Select { predicate, .. } => ops::select(of(0), predicate, tau)?,
        Expr::Project { positions, .. } => ops::project(of(0), positions, tau)?,
        Expr::Product { .. } => ops::product(of(0), of(1), tau)?,
        Expr::Union { .. } => ops::union(of(0), of(1), tau)?,
        Expr::Join { predicate, .. } => ops::join_nested_loop(of(0), of(1), predicate, tau)?,
        Expr::Intersect { .. } => ops::intersect(of(0), of(1), tau)?,
        Expr::Difference { .. } => {
            let meta = ops::difference_meta(of(0), of(1), tau);
            texp = texp.min(meta.texp);
            validity = validity.intersect(&meta.validity);
            ops::difference(of(0), of(1), tau)?
        }
        Expr::Aggregate { group_by, func, .. } => {
            let (rel, own_texp, own_validity) =
                literal_aggregate(of(0), group_by, *func, mode, tau)?;
            texp = texp.min(own_texp);
            validity = validity.intersect(&own_validity);
            rel
        }
    };
    Ok(Literal {
        rel,
        texp,
        validity,
        inputs,
    })
}
