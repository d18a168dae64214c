//! The expiration-time operators read literally (paper Section 2).
//!
//! Each operator is applied at an explicit time `τ`: argument relations
//! are implicitly replaced by `expτ(R)` ("consider only tuples that have
//! not yet expired at the time the operator is applied"), and result
//! tuples carry the expiration times the paper's equations assign. Every
//! input is a built relation and every row goes in through
//! [`Relation::insert`] or [`Relation::insert_with`], which check it
//! against the schema.

use exptime_core::algebra::ops::CriticalTuple;
use exptime_core::error::Result;
use exptime_core::interval::{Interval, IntervalSet};
use exptime_core::predicate::Predicate;
use exptime_core::relation::{DuplicatePolicy, Relation};
use exptime_core::time::Time;

/// Selection `σexp_p(R)` (Equation 1): keeps unexpired tuples satisfying
/// `p`; result tuples retain their expiration times.
///
/// # Errors
///
/// Returns an error if `p` references attributes outside `R`'s arity.
pub fn select(r: &Relation, p: &Predicate, tau: Time) -> Result<Relation> {
    p.validate(r.arity())?;
    let mut out = Relation::new(r.schema().clone());
    for (t, e) in r.iter_at(tau) {
        if p.eval(t) {
            out.insert(t.clone(), e)?;
        }
    }
    Ok(out)
}

/// Projection `πexp_{j1,…,jn}(R)` (Equation 3): projects unexpired tuples
/// and, because projection eliminates duplicates, assigns each result tuple
/// the **maximum** expiration time of all tuples that coincide under the
/// projection.
///
/// # Errors
///
/// Returns an error on out-of-range positions.
pub fn project(r: &Relation, positions: &[usize], tau: Time) -> Result<Relation> {
    let schema = r.schema().project(positions)?;
    let mut out = Relation::new(schema);
    for (t, e) in r.iter_at(tau) {
        // KeepMax is exactly Equation 3's max over coinciding tuples.
        out.insert_with(t.project(positions), e, DuplicatePolicy::KeepMax)?;
    }
    Ok(out)
}

/// Cartesian product `R ×exp S` (Equation 2): concatenated tuples carry the
/// **minimum** of the participating expiration times.
///
/// # Errors
///
/// Returns a schema error if a concatenated row fails the product schema.
pub fn product(r: &Relation, s: &Relation, tau: Time) -> Result<Relation> {
    let schema = r.schema().product(s.schema());
    let mut out = Relation::new(schema);
    for (rt, re) in r.iter_at(tau) {
        for (st, se) in s.iter_at(tau) {
            out.insert(rt.concat(st), re.min(se))?;
        }
    }
    Ok(out)
}

/// Union `R ∪exp S` (Equation 4): requires union compatibility; tuples in
/// both sides get the **maximum** of the two expiration times.
///
/// # Errors
///
/// Returns [`Error::NotUnionCompatible`](exptime_core::error::Error) on
/// schema mismatch.
pub fn union(r: &Relation, s: &Relation, tau: Time) -> Result<Relation> {
    r.check_union_compatible(s)?;
    let mut out = Relation::new(r.schema().clone());
    for (t, e) in r.iter_at(tau) {
        out.insert(t.clone(), e)?;
    }
    for (t, e) in s.iter_at(tau) {
        // KeepMax realises Equation 4's case analysis.
        out.insert_with(t.clone(), e, DuplicatePolicy::KeepMax)?;
    }
    Ok(out)
}

/// Join `R ⋈exp_p S` (Equation 5) evaluated as it is defined,
/// `σexp_p(R ×exp S)`: a filtered nested loop over the product. The
/// predicate addresses the concatenated attributes (left attributes at
/// `0..α(R)`, right at `α(R)..`).
///
/// # Errors
///
/// Returns an error if `p` references attributes outside the product arity.
pub fn join_nested_loop(r: &Relation, s: &Relation, p: &Predicate, tau: Time) -> Result<Relation> {
    p.validate(r.arity() + s.arity())?;
    let schema = r.schema().product(s.schema());
    let mut out = Relation::new(schema);
    for (rt, re) in r.iter_at(tau) {
        for (st, se) in s.iter_at(tau) {
            let joined = rt.concat(st);
            if p.eval(&joined) {
                out.insert(joined, re.min(se))?;
            }
        }
    }
    Ok(out)
}

/// Intersection `R ∩exp S` (Equation 6): tuples in both sides, with the
/// **minimum** of the two expiration times (the expiration flows through the
/// inner Cartesian product of the paper's rewrite).
///
/// # Errors
///
/// Returns [`Error::NotUnionCompatible`](exptime_core::error::Error) on
/// schema mismatch.
pub fn intersect(r: &Relation, s: &Relation, tau: Time) -> Result<Relation> {
    r.check_union_compatible(s)?;
    let mut out = Relation::new(r.schema().clone());
    for (t, re) in r.iter_at(tau) {
        if let Some(se) = s.texp(t) {
            if se > tau {
                out.insert(t.clone(), re.min(se))?;
            }
        }
    }
    Ok(out)
}

/// Difference `R −exp S` (Equation 10): unexpired `R`-tuples not unexpired
/// in `S`; result tuples retain `texp_R`.
///
/// # Errors
///
/// Returns [`Error::NotUnionCompatible`](exptime_core::error::Error) on
/// schema mismatch.
pub fn difference(r: &Relation, s: &Relation, tau: Time) -> Result<Relation> {
    r.check_union_compatible(s)?;
    let mut out = Relation::new(r.schema().clone());
    for (t, re) in r.iter_at(tau) {
        if !s.contains_at(t, tau) {
            out.insert(t.clone(), re)?;
        }
    }
    Ok(out)
}

/// The critical tuples `{t | t ∈ R ∧ t ∈ S ∧ texp_R(t) > texp_S(t)}` of a
/// difference (Table 2, case 3a), evaluated over the unexpired portions at
/// `τ`.
#[must_use]
pub fn critical_tuples(r: &Relation, s: &Relation, tau: Time) -> Vec<CriticalTuple> {
    let mut out = Vec::new();
    for (t, re) in r.iter_at(tau) {
        if let Some(se) = s.texp(t) {
            if se > tau && re > se {
                out.push(CriticalTuple {
                    tuple: t.clone(),
                    appears_at: se,
                    disappears_at: re,
                });
            }
        }
    }
    out
}

/// Expression-level metadata for a materialised difference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferenceMeta {
    /// `texp(R −exp S)` contribution from the arguments' contents: the
    /// minimum `texp_S(t)` over critical tuples (`τR` in Section 2.6.2);
    /// `∞` when no tuple is critical.
    ///
    /// Note: the paper's Equation 11 as printed takes `min{texp_R(t) | …}`,
    /// which contradicts its own derivation of `τR` (the result is invalid
    /// *from the moment the `S`-copy expires*, i.e. `texp_S(t)`) and
    /// Table 2's case 3a (`texp(e) = texp_S(t)`). We follow `τR`/Table 2 and
    /// treat Equation 11's subscript as a typo.
    pub texp: Time,
    /// The exact Schrödinger validity relative to query time `τ`:
    /// `[τ, ∞[ − ⋃_critical [texp_S(t), texp_R(t)[`. Each critical tuple is
    /// missing from the materialised result exactly on its own hole.
    pub validity: IntervalSet,
    /// The coarse validity of Equation 12:
    /// `[τ, ∞[ − [min texp_S(t), max texp_R(t)[` over critical tuples
    /// ("definitely valid until the first critical tuple should appear, and
    /// after all critical tuples have expired"). Always a subset of
    /// `validity`.
    pub validity_eq12: IntervalSet,
}

/// Computes [`DifferenceMeta`] at time `τ`.
#[must_use]
pub fn difference_meta(r: &Relation, s: &Relation, tau: Time) -> DifferenceMeta {
    let critical = critical_tuples(r, s, tau);
    let texp = Time::min_of(critical.iter().map(|c| c.appears_at)).unwrap_or(Time::INFINITY);
    let holes: Vec<Interval> = critical
        .iter()
        .map(|c| Interval::new(c.appears_at, c.disappears_at))
        .collect();
    let all = IntervalSet::from_time(tau);
    let validity = all.subtract(&IntervalSet::from_intervals(holes));
    let validity_eq12 = if critical.is_empty() {
        all
    } else {
        let lo = Time::min_of(critical.iter().map(|c| c.appears_at)).expect("non-empty");
        let hi = Time::max_of(critical.iter().map(|c| c.disappears_at)).expect("non-empty");
        all.subtract(&IntervalSet::single(Interval::new(lo, hi)))
    };
    DifferenceMeta {
        texp,
        validity,
        validity_eq12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::aggregate::{AggFunc, AggMode};
    use exptime_core::algebra::ops::{aggregate, join};
    use exptime_core::predicate::CmpOp;
    use exptime_core::schema::Schema;
    use exptime_core::tuple;
    use exptime_core::value::{Value, ValueType};

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    /// Figure 1(a): the politics table.
    fn pol() -> Relation {
        Relation::from_rows(
            Schema::of(&[("uid", ValueType::Int), ("deg", ValueType::Int)]),
            vec![
                (tuple![1, 25], t(10)),
                (tuple![2, 25], t(15)),
                (tuple![3, 35], t(10)),
            ],
        )
        .unwrap()
    }

    /// Figure 1(b): the elections table.
    fn el() -> Relation {
        Relation::from_rows(
            Schema::of(&[("uid", ValueType::Int), ("deg", ValueType::Int)]),
            vec![
                (tuple![1, 75], t(5)),
                (tuple![2, 85], t(3)),
                (tuple![4, 90], t(2)),
            ],
        )
        .unwrap()
    }

    /// The rows of core's [`aggregate`].
    fn agg(r: &Relation, g: &[usize], f: AggFunc, mode: AggMode, tau: Time) -> Result<Relation> {
        aggregate(r, g, f, mode, tau).map(|(rel, _)| rel)
    }

    #[test]
    fn select_keeps_texp_and_filters_expired() {
        let r = select(&pol(), &Predicate::attr_eq_const(1, 25), Time::ZERO).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.texp(&tuple![1, 25]), Some(t(10)));
        // At τ = 10 the uid-1 row is expired before selection sees it.
        let r10 = select(&pol(), &Predicate::attr_eq_const(1, 25), t(10)).unwrap();
        assert_eq!(r10.len(), 1);
        assert_eq!(r10.texp(&tuple![2, 25]), Some(t(15)));
    }

    #[test]
    fn select_true_is_exp_tau() {
        let r = select(&pol(), &Predicate::True, t(10)).unwrap();
        assert!(r.set_eq(&pol().exp(t(10))));
    }

    #[test]
    fn project_takes_max_texp_of_duplicates_figure_2c() {
        // πexp_2(Pol) at time 0 = {⟨25⟩@15, ⟨35⟩@10}: ⟨1,25⟩@10 and
        // ⟨2,25⟩@15 coincide, the result inherits max = 15.
        let r = project(&pol(), &[1], Time::ZERO).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.texp(&tuple![25]), Some(t(15)));
        assert_eq!(r.texp(&tuple![35]), Some(t(10)));
    }

    #[test]
    fn project_at_time_10_matches_figure_2d() {
        let r = project(&pol(), &[1], t(10)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.texp(&tuple![25]), Some(t(15)));
    }

    #[test]
    fn product_takes_min_texp() {
        let r = product(&pol(), &el(), Time::ZERO).unwrap();
        assert_eq!(r.len(), 9);
        assert_eq!(r.texp(&tuple![1, 25, 1, 75]), Some(t(5)));
        assert_eq!(r.texp(&tuple![2, 25, 4, 90]), Some(t(2)));
        assert_eq!(r.arity(), 4);
    }

    #[test]
    fn hash_join_equals_nested_loop_on_equi_and_mixed_predicates() {
        let preds = vec![
            Predicate::attr_eq_attr(0, 2),
            Predicate::attr_eq_attr(0, 2).and(Predicate::attr_cmp_const(1, CmpOp::Ge, 25)),
            Predicate::attr_eq_attr(0, 2).and(Predicate::attr_eq_attr(1, 3)),
            // No extractable key: nested loop on both sides of the check.
            Predicate::attr_eq_attr(0, 2).or(Predicate::attr_eq_const(1, 35)),
            Predicate::attr_cmp_const(1, CmpOp::Lt, 90),
            Predicate::True,
            Predicate::False,
        ];
        for p in preds {
            for tau in [0u64, 3, 5, 10] {
                let a = join(&pol(), &el(), &p, t(tau)).unwrap();
                let b = join_nested_loop(&pol(), &el(), &p, t(tau)).unwrap();
                assert!(a.set_eq(&b), "{p} at {tau}: {a:?} vs {b:?}");
            }
        }
    }

    /// The one kernel hashes the right input and probes with the left in
    /// order, so `join` is `select(product(..))` as a *sequence* —
    /// left-major, right-minor — whichever input is the larger, with a
    /// residual conjunct, an empty right input, and keys repeated on both
    /// sides (a bucket keeps its right rows in their order).
    #[test]
    fn join_probes_the_left_in_order_and_emits_the_products_sequence() {
        let schema = Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let a = Relation::from_rows(
            schema.clone(),
            vec![(tuple![2, 10], t(9)), (tuple![1, 11], t(7))],
        )
        .unwrap();
        let b = Relation::from_rows(
            schema,
            vec![
                (tuple![1, 20], t(8)),
                (tuple![2, 21], t(8)),
                (tuple![1, 22], t(6)),
                (tuple![2, 23], t(12)),
                (tuple![3, 24], t(8)),
            ],
        )
        .unwrap();
        let rows = |r: &Relation| r.iter().map(|(t, e)| (t.clone(), e)).collect::<Vec<_>>();
        let on = Predicate::attr_eq_attr(0, 2);
        let residual = on.clone().and(Predicate::attr_cmp_const(3, CmpOp::Gt, 10));
        let got = join(&a, &b, &on, Time::ZERO).unwrap();
        assert_eq!(
            rows(&got),
            vec![
                (tuple![2, 10, 2, 21], t(8)),
                (tuple![2, 10, 2, 23], t(9)),
                (tuple![1, 11, 1, 20], t(7)),
                (tuple![1, 11, 1, 22], t(6)),
            ]
        );
        let empty = Relation::new(a.schema().clone());
        // Keys 1 and 2 each on two rows of either side.
        let dup = Relation::from_rows(
            a.schema().clone(),
            vec![
                (tuple![1, 30], t(5)),
                (tuple![2, 31], t(9)),
                (tuple![1, 32], t(11)),
                (tuple![2, 33], t(4)),
            ],
        )
        .unwrap();
        let cases = [
            (&a, &b, &on),
            (&b, &a, &on),
            (&a, &b, &residual),
            (&a, &empty, &on),
            (&dup, &b, &on),
            (&b, &dup, &residual),
        ];
        for (l, r, p) in cases {
            let want = select(&product(l, r, Time::ZERO).unwrap(), p, Time::ZERO).unwrap();
            assert_eq!(rows(&join(l, r, p, Time::ZERO).unwrap()), rows(&want));
            assert_eq!(
                rows(&join_nested_loop(l, r, p, Time::ZERO).unwrap()),
                rows(&want)
            );
        }
        assert!(join(&a, &empty, &on, Time::ZERO).unwrap().is_empty());
        assert_eq!(join(&dup, &b, &on, Time::ZERO).unwrap().len(), 8);
    }

    /// `p` says `Int(2) = Float(2.0)` and a hash key says otherwise, so an
    /// INT = FLOAT conjunct must not become one: alone it leaves the
    /// nested loop, next to an INT = INT conjunct it is only re-checked.
    #[test]
    fn join_on_int_and_float_columns_compares_numerically() {
        let a = Relation::from_rows(
            Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]),
            vec![(tuple![2, 10], t(9)), (tuple![1, 11], t(7))],
        )
        .unwrap();
        let b = Relation::from_rows(
            Schema::of(&[("x", ValueType::Float), ("w", ValueType::Int)]),
            vec![
                (tuple![1.0, 11], t(8)),
                (tuple![2.0, 10], t(8)),
                (tuple![2.5, 10], t(8)),
                (tuple![2.0, 12], t(6)),
            ],
        )
        .unwrap();
        let rows = |r: &Relation| r.iter().map(|(t, e)| (t.clone(), e)).collect::<Vec<_>>();
        let mixed = Predicate::attr_eq_attr(0, 2);
        assert_eq!(
            rows(&join(&a, &b, &mixed, Time::ZERO).unwrap()),
            vec![
                (tuple![2, 10, 2.0, 10], t(8)),
                (tuple![2, 10, 2.0, 12], t(6)),
                (tuple![1, 11, 1.0, 11], t(7)),
            ]
        );
        let both = mixed.clone().and(Predicate::attr_eq_attr(1, 3));
        for (l, r, p) in [(&a, &b, &mixed), (&b, &a, &mixed), (&a, &b, &both)] {
            let want = select(&product(l, r, Time::ZERO).unwrap(), p, Time::ZERO).unwrap();
            assert!(!want.is_empty());
            assert_eq!(rows(&join(l, r, p, Time::ZERO).unwrap()), rows(&want));
        }
    }

    #[test]
    fn union_takes_max_for_shared_tuples() {
        let mut a = Relation::new(Schema::of(&[("x", ValueType::Int)]));
        a.insert(tuple![1], t(5)).unwrap();
        a.insert(tuple![2], t(9)).unwrap();
        let mut b = Relation::new(Schema::of(&[("y", ValueType::Int)]));
        b.insert(tuple![1], t(8)).unwrap();
        b.insert(tuple![3], t(4)).unwrap();
        let u = union(&a, &b, Time::ZERO).unwrap();
        assert_eq!(u.len(), 3);
        assert_eq!(u.texp(&tuple![1]), Some(t(8)), "max of 5 and 8");
        assert_eq!(u.texp(&tuple![2]), Some(t(9)));
        assert_eq!(u.texp(&tuple![3]), Some(t(4)));
    }

    #[test]
    fn union_requires_compatibility() {
        let a = Relation::new(Schema::of(&[("x", ValueType::Int)]));
        let b = Relation::new(Schema::of(&[("y", ValueType::Str)]));
        assert!(union(&a, &b, Time::ZERO).is_err());
        assert!(intersect(&a, &b, Time::ZERO).is_err());
        assert!(difference(&a, &b, Time::ZERO).is_err());
    }

    #[test]
    fn intersect_takes_min_for_shared_tuples() {
        let mut a = Relation::new(Schema::of(&[("x", ValueType::Int)]));
        a.insert(tuple![1], t(5)).unwrap();
        a.insert(tuple![2], t(9)).unwrap();
        let mut b = Relation::new(Schema::of(&[("x", ValueType::Int)]));
        b.insert(tuple![1], t(8)).unwrap();
        let i = intersect(&a, &b, Time::ZERO).unwrap();
        assert_eq!(i.len(), 1);
        assert_eq!(i.texp(&tuple![1]), Some(t(5)), "min of 5 and 8");
        // Expired S-copy excludes the tuple.
        let i8 = intersect(&a, &b, t(8)).unwrap();
        assert!(i8.is_empty());
    }

    #[test]
    fn difference_figure_3b_to_3d() {
        // πexp_1(Pol) −exp πexp_1(El): uids {1@10, 2@15, 3@10} − {1@5, 2@3, 4@2}.
        let pr = project(&pol(), &[0], Time::ZERO).unwrap();
        let er = project(&el(), &[0], Time::ZERO).unwrap();

        let d0 = difference(&pr, &er, Time::ZERO).unwrap();
        assert_eq!(d0.len(), 1, "Figure 3(b): only ⟨3⟩ at time 0");
        assert_eq!(d0.texp(&tuple![3]), Some(t(10)));

        let d3 = difference(&pr, &er, t(3)).unwrap();
        assert_eq!(d3.len(), 2, "Figure 3(c): ⟨2⟩, ⟨3⟩ at time 3");
        assert!(d3.contains(&tuple![2]) && d3.contains(&tuple![3]));

        let d5 = difference(&pr, &er, t(5)).unwrap();
        assert_eq!(d5.len(), 3, "Figure 3(d): ⟨1⟩, ⟨2⟩, ⟨3⟩ at time 5");
    }

    #[test]
    fn critical_tuples_of_figure_3() {
        let pr = project(&pol(), &[0], Time::ZERO).unwrap();
        let er = project(&el(), &[0], Time::ZERO).unwrap();
        let mut crit = critical_tuples(&pr, &er, Time::ZERO);
        crit.sort_by_key(|c| c.appears_at);
        assert_eq!(crit.len(), 2);
        assert_eq!(
            crit[0],
            CriticalTuple {
                tuple: tuple![2],
                appears_at: t(3),
                disappears_at: t(15),
            }
        );
        assert_eq!(
            crit[1],
            CriticalTuple {
                tuple: tuple![1],
                appears_at: t(5),
                disappears_at: t(10),
            }
        );
    }

    #[test]
    fn difference_meta_of_figure_3() {
        let pr = project(&pol(), &[0], Time::ZERO).unwrap();
        let er = project(&el(), &[0], Time::ZERO).unwrap();
        let meta = difference_meta(&pr, &er, Time::ZERO);
        // "the expression is invalid from time 3 onwards"
        assert_eq!(meta.texp, t(3));
        // Exact holes: [3, 15[ ∪ [5, 10[ = [3, 15[.
        assert!(meta.validity.contains(t(2)));
        assert!(!meta.validity.contains(t(3)));
        assert!(!meta.validity.contains(t(14)));
        assert!(meta.validity.contains(t(15)));
        // Equation 12 coarse: hole [3, 15[ — identical here.
        assert_eq!(meta.validity, meta.validity_eq12);
    }

    #[test]
    fn exact_validity_beats_eq12_on_disjoint_holes() {
        let mut r = Relation::new(Schema::of(&[("x", ValueType::Int)]));
        r.insert(tuple![1], t(4)).unwrap(); // hole [2, 4[
        r.insert(tuple![2], t(20)).unwrap(); // hole [10, 20[
        let mut s = Relation::new(Schema::of(&[("x", ValueType::Int)]));
        s.insert(tuple![1], t(2)).unwrap();
        s.insert(tuple![2], t(10)).unwrap();
        let meta = difference_meta(&r, &s, Time::ZERO);
        assert!(meta.validity.contains(t(5)), "exact: valid between holes");
        assert!(!meta.validity_eq12.contains(t(5)), "Eq 12 blankets [2, 20[");
        assert_eq!(meta.texp, t(2));
    }

    #[test]
    fn difference_meta_without_critical_tuples_is_eternal() {
        let pr = project(&pol(), &[0], Time::ZERO).unwrap();
        let empty = Relation::new(pr.schema().clone());
        let meta = difference_meta(&pr, &empty, Time::ZERO);
        assert_eq!(meta.texp, Time::INFINITY);
        assert!(meta.validity.contains(t(1_000)));
        assert_eq!(meta.validity, meta.validity_eq12);
    }

    #[test]
    fn aggregate_naive_texp_matches_figure_3a() {
        // Under Equation 8, ⟨25,2⟩-rows expire at min(10,15) = 10 and the
        // projected histogram "⟨25, 2⟩ expires" at 10 — making the result
        // invalid from 10 (it should contain ⟨25, 1⟩).
        let a = agg(&pol(), &[1], AggFunc::Count, AggMode::Naive, Time::ZERO).unwrap();
        assert_eq!(a.texp(&tuple![1, 25, 2]), Some(t(10)));
        assert_eq!(a.texp(&tuple![2, 25, 2]), Some(t(10)));
        assert_eq!(a.texp(&tuple![3, 35, 1]), Some(t(10)));
        let hist = project(&a, &[1, 2], Time::ZERO).unwrap();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist.texp(&tuple![25, 2]), Some(t(10)));
        assert_eq!(hist.texp(&tuple![35, 1]), Some(t(10)));
    }

    #[test]
    fn empty_inputs_produce_empty_outputs() {
        let empty = Relation::new(pol().schema().clone());
        assert!(select(&empty, &Predicate::True, Time::ZERO)
            .unwrap()
            .is_empty());
        assert!(project(&empty, &[0], Time::ZERO).unwrap().is_empty());
        assert!(product(&empty, &pol(), Time::ZERO).unwrap().is_empty());
        assert!(union(&empty, &empty, Time::ZERO).unwrap().is_empty());
        assert!(difference(&empty, &pol(), Time::ZERO).unwrap().is_empty());
        assert!(
            agg(&empty, &[0], AggFunc::Count, AggMode::Naive, Time::ZERO)
                .unwrap()
                .is_empty()
        );
        let meta = aggregate(&empty, &[0], AggFunc::Count, AggMode::Exact, Time::ZERO)
            .unwrap()
            .1;
        assert_eq!(meta.texp, Time::INFINITY);
    }

    #[test]
    fn all_infinite_texp_degenerates_to_textbook_algebra() {
        // "if all tuples are assigned expiration time ∞ then the algebra
        // operators work like their textbook equivalents."
        let mut r = Relation::new(Schema::of(&[("x", ValueType::Int)]));
        let mut s = Relation::new(Schema::of(&[("x", ValueType::Int)]));
        for i in 0..5 {
            r.insert(tuple![i], Time::INFINITY).unwrap();
        }
        for i in 3..8 {
            s.insert(tuple![i], Time::INFINITY).unwrap();
        }
        let far = t(1_000_000);
        let u = union(&r, &s, far).unwrap();
        assert_eq!(u.len(), 8);
        let i = intersect(&r, &s, far).unwrap();
        assert_eq!(i.len(), 2);
        let d = difference(&r, &s, far).unwrap();
        assert_eq!(d.len(), 3);
        for rel in [&u, &i, &d] {
            assert!(rel.iter().all(|(_, e)| e.is_infinite()));
        }
        let meta = difference_meta(&r, &s, far);
        assert_eq!(meta.texp, Time::INFINITY);
        assert_eq!(
            Value::Int(5),
            agg(&r, &[], AggFunc::Count, AggMode::Exact, far)
                .unwrap()
                .iter()
                .next()
                .unwrap()
                .0
                .attr(1)
                .clone()
        );
    }
}
