//! Shared generators and helpers for the integration/property tests.
#![allow(dead_code)] // each test harness uses a different subset

use exptime::core::aggregate::{self, neutral, nu, AggFunc, AggMode, Row};
use exptime::core::algebra::{ops, Expr};
use exptime::core::catalog::Catalog;
use exptime::core::error::Error;
use exptime::core::interval::{Interval, IntervalSet};
use exptime::core::predicate::{CmpOp, Predicate};
use exptime::core::relation::Relation;
use exptime::core::schema::Schema;
use exptime::core::time::Time;
use exptime::core::tuple::Tuple;
use exptime::core::value::{Value, ValueType};
use proptest::prelude::*;

/// The common two-int schema every generated relation uses, so that any
/// two generated relations are union-compatible.
pub fn schema2() -> Schema {
    Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)])
}

/// A generated row: small key/value domains force collisions (shared
/// tuples between relations, duplicate projections, multi-row groups),
/// which is where all the interesting expiration semantics live.
pub fn arb_row() -> impl Strategy<Value = (Tuple, Time)> {
    (
        0i64..8,
        -3i64..4,
        prop_oneof![3 => (1u64..40).prop_map(Time::new), 1 => Just(Time::INFINITY)],
    )
        .prop_map(|(k, v, e)| (Tuple::new(vec![Value::Int(k), Value::Int(v)]), e))
}

/// An arbitrary relation of up to `max` rows.
pub fn arb_relation(max: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec(arb_row(), 0..max)
        .prop_map(|rows| Relation::from_rows(schema2(), rows).expect("generated rows are valid"))
}

/// A catalog with two generated relations `r` and `s`, where `s` also
/// holds some of `r`'s tuples under expiration times of its own, so that a
/// difference between the two has critical tuples (Theorem 3) — which two
/// independent draws from the 56 possible tuples seldom share.
pub fn arb_overlapping_catalog(max: usize) -> impl Strategy<Value = Catalog> {
    let echoes = proptest::collection::vec((0..max, 1u64..40), 0..max);
    (arb_relation(max), arb_relation(max), echoes).prop_map(|(r, mut s, echoes)| {
        for (i, texp) in echoes {
            if let Some((tuple, _)) = r.iter().nth(i) {
                s.insert(tuple.clone(), Time::new(texp))
                    .expect("one schema");
            }
        }
        let mut c = Catalog::new();
        c.register("r", r);
        c.register("s", s);
        c
    })
}

/// An arbitrary algebra expression over `r` and `s` (both arity 2).
///
/// Every generated expression is well-typed against
/// [`arb_overlapping_catalog`]:
/// projections/products are tracked through a recursive strategy that
/// always yields arity-2 results, so unions/differences stay compatible.
pub fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::base("r")), Just(Expr::base("s"))];
    leaf.prop_recursive(3, 24, 2, |inner| {
        let pred = prop_oneof![
            (0usize..2, 0i64..8).prop_map(|(a, c)| Predicate::attr_eq_const(a, c)),
            (0usize..2, 0i64..8).prop_map(|(a, c)| Predicate::attr_cmp_const(a, CmpOp::Lt, c)),
            Just(Predicate::attr_eq_attr(0, 1)),
            Just(Predicate::True),
        ];
        prop_oneof![
            (inner.clone(), pred).prop_map(|(e, p)| e.select(p)),
            // Arity-preserving projection (swap) keeps compatibility.
            inner.clone().prop_map(|e| e.project([1, 0])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.difference(b)),
            // Aggregation appends a column; project back to arity 2. Avg
            // is excluded: it appends a FLOAT, which would break the
            // union compatibility of (INT, INT) subexpressions. The three
            // projections are the three output shapes: one row per group;
            // Klug rows built and then projected, for a non-grouping
            // attribute is kept; and one row per group merged by
            // `KeepMax`, for a grouping attribute is dropped.
            (
                inner.clone(),
                prop_oneof![
                    Just(AggFunc::Count),
                    Just(AggFunc::Sum(1)),
                    Just(AggFunc::Min(1)),
                    Just(AggFunc::Max(1)),
                ],
                0usize..3,
            )
                .prop_map(|(e, f, shape)| match shape {
                    0 => e.aggregate([0], f).project([0, 2]),
                    1 => e.aggregate([0], f).project([1, 2]),
                    _ => e.aggregate([0, 1], f).project([0, 2]),
                }),
        ]
    })
}

/// All instants worth testing for a catalog: every distinct expiration
/// time ± 1, plus 0 and a far-future probe.
pub fn probe_times(catalog: &Catalog) -> Vec<Time> {
    let mut ts = vec![Time::ZERO, Time::new(1_000)];
    for (_, rel) in catalog.iter() {
        for e in rel.event_times(Time::ZERO) {
            ts.push(e.pred());
            ts.push(e);
            ts.push(e.succ());
        }
    }
    ts.sort_unstable();
    ts.dedup();
    ts
}

/// The paper's definitions read literally: every node is its one `ops::`
/// call over inputs that were built in full — `Base` is `expτ(R)`, a
/// `σ(×)` selects from a product that exists (Eq. 1–6, 10) — and an
/// aggregation is [`literal_aggregate`], which shares nothing with the
/// evaluator's. Nothing is fused, so this is what the evaluator's
/// one-pass leaf, its Equation 5 join and its grouped-once aggregation
/// are held to, intermediate by intermediate.
pub struct Literal {
    pub rel: Relation,
    pub texp: Time,
    pub validity: IntervalSet,
    /// The node's inputs, evaluated the same way.
    pub inputs: Vec<Literal>,
}

/// The inputs of an operator, left to right (none for a `Base`).
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
) -> Result<(Relation, Time, IntervalSet), Error> {
    let arity = input.arity();
    if let Some(&index) = group_by.iter().find(|&&j| j >= arity) {
        return Err(Error::AttributeOutOfRange { index, arity });
    }
    f.validate(arity)?;
    let ty = f.result_type(f.attribute().map(|i| input.schema().attr(i).ty));
    let mut out = Relation::new(input.schema().append(&f.to_string(), ty));
    let (mut texp, mut validity) = (Time::INFINITY, IntervalSet::from_time(tau));
    for (_, rows) in aggregate::partition(input, group_by, tau) {
        let timeline = nu::value_timeline(tau, &rows, &mut |p: &[Row]| f.apply(p))?;
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

pub fn literal(expr: &Expr, catalog: &Catalog, tau: Time, mode: AggMode) -> Result<Literal, Error> {
    let inputs = inputs(expr)
        .into_iter()
        .map(|input| literal(input, catalog, tau, mode))
        .collect::<Result<Vec<_>, _>>()?;
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
