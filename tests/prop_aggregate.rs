//! Property tests for the aggregation machinery (paper Section 2.6.1):
//! ordering and soundness of the three expiration-time assignment modes,
//! exactness of ν — the first-change computation evaluation uses, the
//! timeline definition and the literal per-tick one all agree — and the
//! Section 3.4.1 bounds on aggregate value changes.

mod common;

use common::schema2;
use exptime::core::aggregate::{self, neutral, AggFunc, AggMode, Row};
use exptime::core::relation::Relation;
use exptime::core::time::Time;
use exptime::core::tuple::Tuple;
use exptime::core::value::Value;
use exptime_literal::nu;
use proptest::prelude::*;

const HORIZON: u64 = 80;

/// Values within a few units of one base per partition: 0, so that slices
/// cancel and extremes are shared, or ±2ᵏ up to 2⁶⁰ — far enough from 0
/// that no relative tolerance sees the differences, and past 2⁵³ too far
/// for an `f64` to hold the totals.
fn arb_partition() -> impl Strategy<Value = Vec<Row>> {
    let row = (
        0i64..64,
        -3i64..4,
        prop_oneof![4 => (1u64..40).prop_map(Time::new), 1 => Just(Time::INFINITY)],
    );
    let magnitude =
        (0u32..61, any::<bool>()).prop_map(|(k, neg)| (1i64 << k) * if neg { -1 } else { 1 });
    let base = prop_oneof![2 => Just(0), 3 => magnitude];
    (base, proptest::collection::vec(row, 1..12)).prop_map(|(base, rows)| {
        let row = |(id, v, e)| (Tuple::new(vec![Value::Int(id), Value::Int(base + v)]), e);
        rows.into_iter().map(row).collect()
    })
}

/// Partitions built to cancel: few distinct expiration times, so time
/// slices hold several rows, and a value column that is all INT, all
/// FLOAT in tenths, or either row by row — `0.1 + 0.2 − 0.3` is not
/// `0.0`, so a running float total would drift from a fresh fold of the
/// survivors, and `0.1 + 1 − 1` is not `0.1`, so an INT slice summing to 0
/// beside a FLOAT still moves the value.
fn arb_sliced_partition() -> impl Strategy<Value = Vec<Row>> {
    let row = (
        -3i64..4,
        any::<bool>(),
        prop_oneof![4 => (1u64..6).prop_map(|e| Time::new(4 * e)), 1 => Just(Time::INFINITY)],
    );
    let kind = prop_oneof![Just(Some(false)), Just(Some(true)), Just(None)];
    (kind, proptest::collection::vec(row, 1..12)).prop_map(|(kind, rows)| {
        let row = |(id, (v, float, e)): (usize, (i64, bool, Time))| {
            let v = match kind.unwrap_or(float) {
                true => Value::float(v as f64 / 10.0),
                false => Value::Int(v),
            };
            (Tuple::new(vec![Value::Int(id as i64), v]), e)
        };
        rows.into_iter().enumerate().map(row).collect()
    })
}

fn arb_func() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::Sum(1)),
        Just(AggFunc::Avg(1)),
        Just(AggFunc::Min(1)),
        Just(AggFunc::Max(1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mode ordering: naive ≤ contributing ≤ exact, always.
    #[test]
    fn mode_lifetimes_are_ordered(p in arb_partition(), f in arb_func()) {
        let naive = aggregate::result_texp(&p, f, AggMode::Naive, Time::ZERO)?;
        let contributing = aggregate::result_texp(&p, f, AggMode::Contributing, Time::ZERO)?;
        let exact = aggregate::result_texp(&p, f, AggMode::Exact, Time::ZERO)?;
        prop_assert!(naive <= contributing, "{f}: naive {naive} ≤ contributing {contributing} on {p:?}");
        prop_assert!(contributing <= exact, "{f}: contributing {contributing} ≤ exact {exact} on {p:?}");
    }

    /// Soundness of every mode: while the result tuple is unexpired, the
    /// aggregate value computed at materialisation time is still the true
    /// value (no stale value is ever visible).
    #[test]
    fn modes_never_show_stale_values(
        p in arb_partition(),
        f in arb_func(),
        mode in prop_oneof![Just(AggMode::Naive), Just(AggMode::Contributing), Just(AggMode::Exact)],
    ) {
        let original = f.apply(&p)?;
        let texp = aggregate::result_texp(&p, f, mode, Time::ZERO)?;
        for tau in 0..HORIZON {
            let tau = Time::new(tau);
            if tau >= texp {
                break;
            }
            let surviving: Vec<Row> = p.iter().filter(|(_, e)| *e > tau).cloned().collect();
            let now = f.apply(&surviving)?;
            prop_assert_eq!(
                &now, &original,
                "{} under {:?}: value changed at {} but result tuple lives to {}\npartition {:?}",
                f, mode, tau, texp, p
            );
        }
    }

    /// Exactness of ν: the sweep agrees with the per-tick oracle, and the
    /// value really changes at ν (tightness) unless ν = ∞.
    #[test]
    fn nu_is_exact_and_tight(p in arb_partition(), f in arb_func()) {
        let mut apply = |rows: &[Row]| f.apply(rows);
        let fast = nu::nu(Time::ZERO, &p, &mut apply)?;
        let mut apply = |rows: &[Row]| f.apply(rows);
        let slow = nu::nu_naive(Time::ZERO, &p, &mut apply, Time::new(HORIZON))?;
        match slow {
            Some(t) => prop_assert_eq!(fast, t),
            None => prop_assert!(fast.is_infinite() || fast > Time::new(HORIZON)),
        }
        if let Some(v) = fast.finite() {
            if v <= HORIZON {
                let before: Vec<Row> = p.iter().filter(|(_, e)| *e > Time::new(v).pred()).cloned().collect();
                let at: Vec<Row> = p.iter().filter(|(_, e)| *e > Time::new(v)).cloned().collect();
                prop_assert_ne!(
                    f.apply(&before)?, f.apply(&at)?,
                    "ν = {} is not a change point of {} on {:?}", fast, f, p
                );
            }
        }
    }

    /// What evaluation computes is Equation 9: the first change, found
    /// without the timeline, is the timeline's first change point and the
    /// per-tick definition's — from `τ = 0` and from a `τ` past some rows'
    /// expiration, over immortal rows, shared expiration times and FLOAT
    /// values, whose sums must match a fresh fold bit for bit.
    #[test]
    fn first_change_is_nu(
        p in prop_oneof![arb_partition(), arb_sliced_partition()],
        f in arb_func(),
        tau in prop_oneof![Just(0u64), Just(10)],
    ) {
        let tau = Time::new(tau);
        let first = aggregate::nu::first_change(tau, &p, f)?;
        let mut apply = |rows: &[Row]| f.apply(rows);
        prop_assert_eq!(first, nu::nu(tau, &p, &mut apply)?, "{} from {} on {:?}", f, tau, p);
        let mut apply = |rows: &[Row]| f.apply(rows);
        match nu::nu_naive(tau, &p, &mut apply, Time::new(HORIZON))? {
            Some(t) => prop_assert_eq!(first, t),
            None => prop_assert!(first.is_infinite()),
        }
    }

    /// χ marks exactly the ticks before value changes.
    #[test]
    fn chi_matches_direct_comparison(p in arb_partition(), f in arb_func(), tau in 0u64..50) {
        let tau = Time::new(tau);
        let mut apply = |rows: &[Row]| f.apply(rows);
        let flagged = nu::chi(tau, &p, &mut apply)?;
        let at: Vec<Row> = p.iter().filter(|(_, e)| *e > tau).cloned().collect();
        let next: Vec<Row> = p.iter().filter(|(_, e)| *e > tau.succ()).cloned().collect();
        prop_assert_eq!(flagged, f.apply(&at)? != f.apply(&next)?);
    }

    /// The value timeline is change-minimal and bounded by |P| + 1 entries
    /// (a deterministic f takes at most |P| distinct values before the
    /// partition expires — Section 3.4.1).
    #[test]
    fn timeline_is_minimal_and_bounded(p in arb_partition(), f in arb_func()) {
        let mut apply = |rows: &[Row]| f.apply(rows);
        let tl = nu::value_timeline(Time::ZERO, &p, &mut apply)?;
        prop_assert!(tl.len() <= p.len() + 1, "{} entries for |P| = {}", tl.len(), p.len());
        for w in tl.windows(2) {
            prop_assert_ne!(&w[0].1, &w[1].1, "adjacent equal values not merged");
            prop_assert!(w[0].0 < w[1].0);
        }
        let mut apply = |rows: &[Row]| f.apply(rows);
        prop_assert_eq!(nu::change_count(Time::ZERO, &p, &mut apply)?, tl.len() - 1);
    }

    /// Tuple validity intervals cover exactly the instants where the
    /// aggregate equals its original value.
    #[test]
    fn tuple_validity_is_pointwise_exact(p in arb_partition(), f in arb_func()) {
        let original = f.apply(&p)?;
        let mut apply = |rows: &[Row]| f.apply(rows);
        let validity = nu::tuple_validity(Time::ZERO, &p, &mut apply)?;
        for tau in 0..HORIZON {
            let tau = Time::new(tau);
            let surviving: Vec<Row> = p.iter().filter(|(_, e)| *e > tau).cloned().collect();
            let now = f.apply(&surviving)?;
            prop_assert_eq!(
                validity.contains(tau),
                now == original,
                "at {}: value {:?} vs original {:?}", tau, now, original
            );
        }
    }

    /// Contributing-set soundness, stated operationally: expiring all time
    /// slices strictly before the contributing bound leaves the aggregate
    /// value unchanged — over INTs, over FLOATs that cancel, and over a
    /// FLOAT beside INT slices that do.
    #[test]
    fn contributing_bound_is_sound(
        p in prop_oneof![arb_partition(), arb_sliced_partition()],
        f in arb_func(),
    ) {
        let bound = neutral::contributing_texp(&p, f)?;
        let original = f.apply(&p)?;
        for tau in 0..HORIZON {
            let tau = Time::new(tau);
            if tau >= bound {
                break;
            }
            let surviving: Vec<Row> = p.iter().filter(|(_, e)| *e > tau).cloned().collect();
            prop_assert_eq!(f.apply(&surviving)?, original.clone(), "{} at {}", f, tau);
        }
    }

    /// The aggregation operator (Eq. 8) keeps every input tuple, appends
    /// the partition value, and under Exact mode assigns one expiration
    /// time per partition.
    #[test]
    fn operator_shape(rows in proptest::collection::vec(
        (0i64..5, 0i64..4, 1u64..40), 1..16)
    ) {
        let mut rel = Relation::new(schema2());
        for &(k, v, e) in &rows {
            rel.insert(Tuple::new(vec![Value::Int(k), Value::Int(v)]), Time::new(e)).unwrap();
        }
        let (out, _) = exptime::core::algebra::ops::aggregate(
            &rel, &[0], AggFunc::Count, AggMode::Exact, Time::ZERO,
        ).unwrap();
        prop_assert_eq!(out.len(), rel.len(), "Klug-style: one output per input tuple");
        // One partition-level bound, capped per row by its base texp: a
        // result row never outlives its base tuple, and rows whose bases
        // outlive the bound share the bound exactly.
        for (t1, e1) in out.iter() {
            let base1 = rel.texp(&t1.project(&[0, 1])).expect("base exists");
            prop_assert!(e1 <= base1, "result row outlives base");
            for (t2, e2) in out.iter() {
                if t1.attr(0) == t2.attr(0) {
                    let base2 = rel.texp(&t2.project(&[0, 1])).expect("base exists");
                    if e1 < base1 && e2 < base2 {
                        // Both capped by the shared partition bound.
                        prop_assert_eq!(e1, e2);
                    }
                    prop_assert_eq!(t1.attr(2), t2.attr(2), "same value per partition");
                }
            }
        }
    }
}

fn first_change(p: &[Row], f: AggFunc) -> Time {
    let first = aggregate::nu::first_change(Time::ZERO, p, f).unwrap();
    let mut apply = |rows: &[Row]| f.apply(rows);
    assert_eq!(first, nu::nu(Time::ZERO, p, &mut apply).unwrap(), "{f}");
    first
}

fn rows_of<V: Into<Value> + Copy>(rows: &[(V, u64)]) -> Vec<Row> {
    let texp = |e| if e == 0 { Time::INFINITY } else { Time::new(e) };
    let row = |(i, &(v, e)): (usize, &(V, u64))| {
        (Tuple::new(vec![Value::Int(i as i64), v.into()]), texp(e))
    };
    rows.iter().enumerate().map(row).collect()
}

/// A time slice that cancels is not a change point — for INT values by
/// arithmetic, for FLOAT values only if `apply` over the survivors says
/// so, bit for bit.
#[test]
fn a_cancelling_slice_is_not_a_change() {
    let ints = rows_of(&[(3i64, 4), (-3, 4), (7, 9)]);
    assert_eq!(first_change(&ints, AggFunc::Sum(1)), Time::new(9));
    assert_eq!(first_change(&ints, AggFunc::Avg(1)), Time::new(4));
    let floats = rows_of(&[(0.1f64, 4), (-0.1, 4), (0.7, 9)]);
    for f in [AggFunc::Sum(1), AggFunc::Avg(1)] {
        let at = |tau: u64| {
            let alive: Vec<Row> = floats
                .iter()
                .filter(|r| r.1 > Time::new(tau))
                .cloned()
                .collect();
            f.apply(&alive).unwrap()
        };
        let want = if at(4) == at(0) {
            Time::new(9)
        } else {
            Time::new(4)
        };
        assert_eq!(first_change(&floats, f), want, "{f}");
    }
    // (0.1 + 0.2) − 0.3 is not 0.0: the slice at 4 sums to nothing on
    // paper, and a fresh fold of the survivor still differs from the
    // value at 0.
    let drift = rows_of(&[(0.1f64, 9), (0.2, 4), (-0.2, 4), (1e16, 4), (-1e16, 4)]);
    assert_eq!(
        AggFunc::Sum(1).apply(&drift).unwrap(),
        Some(Value::float(0.0)),
        "0.1 is absorbed by 1e16"
    );
    assert_eq!(first_change(&drift, AggFunc::Sum(1)), Time::new(4));
}

#[test]
fn first_change_of_pinned_immortal_and_already_expired_partitions() {
    // A minimum held by a row that never expires never changes.
    let pinned = rows_of(&[(5i64, 0), (9, 7), (5, 3)]);
    assert_eq!(first_change(&pinned, AggFunc::Min(1)), Time::INFINITY);
    assert_eq!(first_change(&pinned, AggFunc::Max(1)), Time::new(7));
    assert_eq!(first_change(&pinned, AggFunc::Count), Time::new(3));
    // Nothing ever leaves an all-∞ partition.
    let immortal = rows_of(&[(1i64, 0), (2, 0)]);
    for f in [
        AggFunc::Count,
        AggFunc::Sum(1),
        AggFunc::Avg(1),
        AggFunc::Min(1),
        AggFunc::Max(1),
    ] {
        assert_eq!(first_change(&immortal, f), Time::INFINITY, "{f}");
    }
    // Only an untyped column holds `2` and `2.0` at once: min emits the
    // first of equal minima, max the last of equal maxima.
    let mixed = vec![
        (Tuple::new(vec![Value::Int(0), Value::Int(2)]), Time::new(5)),
        (
            Tuple::new(vec![Value::Int(1), Value::float(2.0)]),
            Time::new(9),
        ),
    ];
    assert_eq!(first_change(&mixed, AggFunc::Min(1)), Time::new(5));
    assert_eq!(first_change(&mixed, AggFunc::Max(1)), Time::new(9));
    assert_eq!(first_change(&mixed, AggFunc::Sum(1)), Time::new(5));
    // From τ = 5 the rows that expired at 3 and 5 are not there: the
    // maximum is 4 until 8, and two rows are left to count.
    let p = rows_of(&[(9i64, 3), (4, 8), (2, 12), (7, 5)]);
    let from_5 = |f| aggregate::nu::first_change(Time::new(5), &p, f).unwrap();
    assert_eq!(from_5(AggFunc::Max(1)), Time::new(8));
    assert_eq!(from_5(AggFunc::Min(1)), Time::new(12));
    assert_eq!(from_5(AggFunc::Count), Time::new(8));
    assert_eq!(from_5(AggFunc::Sum(1)), Time::new(8));
    assert_eq!(
        aggregate::nu::first_change(Time::new(12), &p, AggFunc::Count).unwrap(),
        Time::INFINITY
    );
}

/// ν is not quadratic: 20 000 rows carrying one value with 20 000
/// distinct expiration times. The count changes at once; sum, avg, min
/// and max change only when the partition dies, so their sweeps run to
/// the end. Rebuilding the survivors at every slice, as the timeline
/// definition does, is 4 × 10⁸ row copies per function.
#[test]
fn exact_aggregation_of_a_large_partition_is_not_quadratic() {
    const N: u64 = 20_000;
    let mut rel = Relation::new(schema2());
    for i in 0..N {
        let row = Tuple::new(vec![Value::Int(i as i64), Value::Int(0)]);
        rel.insert(row, Time::new(i + 1)).unwrap();
    }
    let start = std::time::Instant::now();
    let last = Tuple::new(vec![Value::Int(N as i64 - 1), Value::Int(0)]);
    for (f, value, bound) in [
        (AggFunc::Count, Value::Int(N as i64), 1),
        (AggFunc::Sum(1), Value::Int(0), N),
        (AggFunc::Avg(1), Value::float(0.0), N),
        (AggFunc::Min(1), Value::Int(0), N),
        (AggFunc::Max(1), Value::Int(0), N),
    ] {
        let (out, meta) =
            exptime::core::algebra::ops::aggregate(&rel, &[], f, AggMode::Exact, Time::ZERO)
                .unwrap();
        assert_eq!(out.len(), N as usize);
        assert_eq!(out.texp(&last.append(value)), Some(Time::new(bound)), "{f}");
        // Only a change the partition outlives invalidates the expression.
        let live = if bound < N {
            Time::new(bound)
        } else {
            Time::INFINITY
        };
        assert_eq!(meta.texp, live, "{f}");
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(1),
        "{:?}",
        start.elapsed()
    );
}
