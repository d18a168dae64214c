//! `exptime-core`'s queue, evaluator and aggregation held to the literal
//! definitions: the Theorem 3 queue built from [`critical_tuples`] patches
//! [`difference`] into a fresh recomputation, the evaluator's exact `I(e)`
//! contains Equation 12's coarse one, and ν as evaluation computes it
//! (`first_change`, `tolerant_texp` at zero tolerance) is [`nu`].

use exptime_core::aggregate::approx::{tolerant_texp, Tolerance};
use exptime_core::aggregate::nu::first_change;
use exptime_core::aggregate::{AggFunc, Row};
use exptime_core::algebra::{eval, EvalOptions, Expr};
use exptime_core::catalog::Catalog;
use exptime_core::patch::PatchQueue;
use exptime_core::relation::Relation;
use exptime_core::schema::Schema;
use exptime_core::time::Time;
use exptime_core::tuple;
use exptime_core::tuple::Tuple;
use exptime_core::value::ValueType;
use exptime_literal::nu::nu;
use exptime_literal::ops::{critical_tuples, difference, difference_meta};

fn t(v: u64) -> Time {
    Time::new(v)
}

fn rel(rows: &[(i64, u64)]) -> Relation {
    let mut r = Relation::new(Schema::of(&[("x", ValueType::Int)]));
    for &(x, e) in rows {
        let e = if e == 0 { Time::INFINITY } else { t(e) };
        r.insert(tuple![x], e).unwrap();
    }
    r
}

#[test]
fn apply_due_inserts_with_texp_r() {
    let r = rel(&[(1, 10), (2, 15)]);
    let s = rel(&[(1, 5), (2, 3)]);
    let mut result = difference(&r, &s, Time::ZERO).unwrap();
    assert!(result.is_empty());
    let mut q = PatchQueue::from_critical(critical_tuples(&r, &s, Time::ZERO));

    let n = q.apply_due(&mut result, t(3));
    assert_eq!(n, 1);
    assert_eq!(result.texp(&tuple![2]), Some(t(15)));

    let n = q.apply_due(&mut result, t(5));
    assert_eq!(n, 1);
    assert_eq!(result.texp(&tuple![1]), Some(t(10)));
    assert!(q.is_empty());
}

#[test]
fn theorem_3_patched_result_equals_recomputation() {
    // Sweep every instant; the patched materialisation must equal a
    // fresh recomputation at each time.
    let r = rel(&[(1, 10), (2, 15), (3, 4), (4, 0)]);
    let s = rel(&[(1, 5), (2, 3), (4, 7)]);
    let mut materialised = difference(&r, &s, Time::ZERO).unwrap();
    let mut q = PatchQueue::from_critical(critical_tuples(&r, &s, Time::ZERO));
    for now in 0..25 {
        let now = t(now);
        q.apply_due(&mut materialised, now);
        let fresh = difference(&r, &s, now).unwrap();
        assert!(
            materialised.set_eq_at(&fresh, now),
            "mismatch at {now}: materialised={materialised:?} fresh={fresh:?}"
        );
    }
}

#[test]
fn stale_patches_are_skipped() {
    // Tuple reappears at 3 and disappears at 4; applying at τ=6 after
    // missing the window inserts nothing.
    let r = rel(&[(1, 4)]);
    let s = rel(&[(1, 3)]);
    let mut result = difference(&r, &s, Time::ZERO).unwrap();
    let mut q = PatchQueue::from_critical(critical_tuples(&r, &s, Time::ZERO));
    let n = q.apply_due(&mut result, t(6));
    assert_eq!(n, 0);
    assert_eq!(result.count_unexpired(t(6)), 0);
    assert!(q.is_empty(), "stale entries are still drained");
}

#[test]
fn infinite_texp_r_patches_never_expire() {
    let r = rel(&[(1, 0)]);
    let s = rel(&[(1, 2)]);
    let mut result = difference(&r, &s, Time::ZERO).unwrap();
    let mut q = PatchQueue::from_critical(critical_tuples(&r, &s, Time::ZERO));
    q.apply_due(&mut result, t(2));
    assert_eq!(result.texp(&tuple![1]), Some(Time::INFINITY));
}

#[test]
fn queue_size_is_bounded_by_intersection() {
    let r = rel(&[(1, 10), (2, 10), (3, 10)]);
    let s = rel(&[(2, 5), (3, 20), (4, 1)]);
    // Critical: only x=2 (10 > 5). Queue ≤ |R ∩ S| = 2.
    let q = PatchQueue::from_critical(critical_tuples(&r, &s, Time::ZERO));
    assert_eq!(q.len(), 1);
}

/// `I(e)` of a difference loses each critical tuple's own hole —
/// unpatched, or patched with no room — where Equation 12's one coarse
/// interval ([`difference_meta`]) blankets them all.
#[test]
fn a_difference_loses_each_critical_tuples_own_hole() {
    let schema = Schema::of(&[("x", ValueType::Int)]);
    let rows = |rows: Vec<(Tuple, Time)>| Relation::from_rows(schema.clone(), rows).unwrap();
    let (r, s) = (
        rows(vec![(tuple![1], t(4)), (tuple![2], t(20))]),
        rows(vec![(tuple![1], t(2)), (tuple![2], t(10))]),
    );
    let eq12 = difference_meta(&r, &s, Time::ZERO).validity_eq12;
    assert!(!eq12.contains(t(5)), "Eq 12 blankets [2, 20[");
    let mut c = Catalog::new();
    c.register("R", r);
    c.register("S", s);
    let e = Expr::base("R").difference(Expr::base("S"));
    let no_room = EvalOptions {
        patch_root: true,
        patch_queue_cap: Some(0),
        ..EvalOptions::default()
    };
    for opts in [EvalOptions::default(), no_room] {
        let exact = eval(&e, &c, Time::ZERO, &opts).unwrap();
        assert!(
            exact.valid_at(t(5)),
            "between the holes [2, 4[ and [10, 20["
        );
        assert!(!exact.valid_at(t(3)) && !exact.valid_at(t(12)));
        assert_eq!(exact.texp, t(2));
        assert_eq!(exact.validity.intersect(&eq12), eq12, "Eq 12 ⊆ exact");
    }
}

/// A `sum` column is exact `i64`s until a value is not an INT, and then
/// every value as it was pushed: ν is still that of the rows.
#[test]
fn an_int_column_turns_into_values_at_the_first_float() {
    let p = vec![
        (tuple![1, 2], Time::new(5)),
        (tuple![2, 2.5], Time::new(7)),
        (tuple![3, 1], Time::new(9)),
    ];
    for f in [AggFunc::Sum(1), AggFunc::Avg(1)] {
        let mut apply = |rows: &[Row]| f.apply(rows);
        let nu = nu(Time::ZERO, &p, &mut apply).unwrap();
        assert_eq!(first_change(Time::ZERO, &p, f).unwrap(), nu, "{f}");
    }
}

#[test]
fn zero_tolerance_equals_exact_nu() {
    let row = |v: i64, e: u64| (tuple![0, v], Time::new(e));
    let p = vec![row(10, 5), row(20, 9), row(30, 13)];
    for f in [AggFunc::Sum(1), AggFunc::Avg(1), AggFunc::Count] {
        let mut apply = |rows: &[Row]| f.apply(rows);
        let exact = nu(Time::ZERO, &p, &mut apply).unwrap();
        let tol = tolerant_texp(Time::ZERO, &p, f, Tolerance::Absolute(0.0)).unwrap();
        assert_eq!(exact, tol, "{f}");
    }
}
