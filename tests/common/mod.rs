//! Shared generators and helpers for the integration/property tests.
#![allow(dead_code)] // each test harness uses a different subset

use exptime::core::aggregate::AggFunc;
use exptime::core::algebra::Expr;
use exptime::core::catalog::Catalog;
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
