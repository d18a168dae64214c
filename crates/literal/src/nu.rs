//! χ and ν read literally (paper Equation 9 and Section 3.4.1).
//!
//! The paper defines
//!
//! ```text
//! χ(τ, P, f) ≡ f(expτ(P)) ≠ f(expτ+1(P))
//! ν(τ, P, f) = min{ τ′ | τ′ ≥ τ ∧ χ(τ′, P, f) }
//! ```
//!
//! for any deterministic aggregate function `f`. Here `f` is a closure
//! ([`AggFn`]) and it is re-applied to a copy of the survivors: at every
//! distinct expiration time for the whole [`value_timeline`] (`O(k·n)`),
//! or at every tick for [`nu_naive`]. Evaluation computes ν for the
//! standard functions with
//! [`first_change`](exptime_core::aggregate::nu::first_change), which is
//! property-tested against [`nu`]; the one-tick convention there (ν is
//! the first instant at which the value differs, `ν_literal + 1`) holds
//! here too.

use exptime_core::aggregate::nu::event_times;
use exptime_core::aggregate::Row;
use exptime_core::error::Result;
use exptime_core::interval::{Interval, IntervalSet};
use exptime_core::time::Time;
use exptime_core::value::Value;

/// An aggregate function as the paper treats it abstractly: any
/// deterministic map from a set of tuples to a value, `None` on `∅`.
/// [`AggFunc::apply`](exptime_core::aggregate::AggFunc::apply) is the
/// standard instance.
pub type AggFn<'a> = &'a mut dyn FnMut(&[Row]) -> Result<Option<Value>>;

/// The surviving rows `expτ(P)` of a partition.
fn surviving(partition: &[Row], tau: Time) -> Vec<Row> {
    partition
        .iter()
        .filter(|(_, e)| *e > tau)
        .cloned()
        .collect()
}

/// The piecewise-constant timeline of the aggregate value from `τ` onwards:
/// `(start, value)` entries meaning the value holds on `[start, next start[`
/// (the last entry holds forever). `value = None` means the partition is
/// empty. Consecutive equal values are merged, so every entry after the
/// first is a genuine change point.
///
/// # Errors
///
/// Propagates errors from `f`.
pub fn value_timeline(
    tau: Time,
    partition: &[Row],
    f: AggFn<'_>,
) -> Result<Vec<(Time, Option<Value>)>> {
    let mut timeline = vec![(tau, f(&surviving(partition, tau))?)];
    for e in event_times(tau, partition.iter().map(|r| r.1)) {
        let v = f(&surviving(partition, e))?;
        if v != timeline.last().expect("timeline non-empty").1 {
            timeline.push((e, v));
        }
    }
    Ok(timeline)
}

/// The paper's χ: does the aggregate value differ between `τ′` and
/// `τ′ + 1`?
///
/// # Errors
///
/// Propagates errors from `f`.
pub fn chi(tau_prime: Time, partition: &[Row], f: AggFn<'_>) -> Result<bool> {
    let a = f(&surviving(partition, tau_prime))?;
    let b = f(&surviving(partition, tau_prime.succ()))?;
    Ok(a != b)
}

/// ν as used throughout the paper: the first instant `≥ τ` at which the
/// aggregate value over `expτ′(P)` differs from its value at `τ` — the
/// correct expiration time for a result tuple materialised at `τ`. Returns
/// [`Time::INFINITY`] if the value never changes (e.g. the partition
/// contains `∞` rows that pin it forever).
///
/// Read off the whole [`value_timeline`]: `O(k · cost(f))` for `k`
/// distinct expiration times, versus the per-tick `O(range · cost(f))` of
/// [`nu_naive`].
///
/// # Errors
///
/// Propagates errors from `f`.
pub fn nu(tau: Time, partition: &[Row], f: AggFn<'_>) -> Result<Time> {
    let timeline = value_timeline(tau, partition, f)?;
    Ok(match timeline.get(1) {
        Some(&(t, _)) => t,
        None => Time::INFINITY,
    })
}

/// The literal per-tick evaluation of ν (then shifted by the one-tick
/// convention): walks `τ, τ+1, τ+2, …` applying `f` at every tick until the
/// value changes or `horizon` is reached (`None` past the horizon).
///
/// # Errors
///
/// Propagates errors from `f`.
pub fn nu_naive(tau: Time, partition: &[Row], f: AggFn<'_>, horizon: Time) -> Result<Option<Time>> {
    let original = f(&surviving(partition, tau))?;
    let mut t = tau;
    while t <= horizon {
        let v = f(&surviving(partition, t))?;
        if v != original {
            return Ok(Some(t));
        }
        t = t.succ();
    }
    Ok(None)
}

/// The validity intervals `I_R(t)` of an aggregation result tuple
/// (Section 3.4.1): the union of the intervals on which the aggregate value
/// equals its value at query time `τ`. A result tuple is *correct* exactly
/// while the value it carries is the value a recomputation would produce.
///
/// # Errors
///
/// Propagates errors from `f`.
pub fn tuple_validity(tau: Time, partition: &[Row], f: AggFn<'_>) -> Result<IntervalSet> {
    let timeline = value_timeline(tau, partition, f)?;
    let original = timeline[0].1.clone();
    let mut ivs = Vec::new();
    for (i, (start, v)) in timeline.iter().enumerate() {
        if *v == original {
            let end = timeline
                .get(i + 1)
                .map_or(Time::INFINITY, |&(next, _)| next);
            ivs.push(Interval::new(*start, end));
        }
    }
    Ok(IntervalSet::from_intervals(ivs))
}

/// How many times the aggregate value changes from `τ` until the partition
/// has fully expired — the paper's bound on "the amount of memory we need to
/// store the future states of an aggregation" (Section 3.4.1). Always
/// `≤ |P|`.
///
/// # Errors
///
/// Propagates errors from `f`.
pub fn change_count(tau: Time, partition: &[Row], f: AggFn<'_>) -> Result<usize> {
    Ok(value_timeline(tau, partition, f)?.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::aggregate::AggFunc;
    use exptime_core::tuple;

    fn row(a: i64, v: i64, e: u64) -> Row {
        (
            tuple![a, v],
            if e == 0 { Time::INFINITY } else { Time::new(e) },
        )
    }

    fn apply(f: AggFunc) -> impl FnMut(&[Row]) -> Result<Option<Value>> {
        move |rows| f.apply(rows)
    }

    #[test]
    fn timeline_of_count_over_figure_3a_partition() {
        // Partition for deg=25 in Pol: texp 10 and 15.
        let p = vec![row(1, 25, 10), row(2, 25, 15)];
        let mut f = apply(AggFunc::Count);
        let tl = value_timeline(Time::ZERO, &p, &mut f).unwrap();
        assert_eq!(
            tl,
            vec![
                (Time::ZERO, Some(Value::Int(2))),
                (Time::new(10), Some(Value::Int(1))),
                (Time::new(15), None),
            ]
        );
    }

    #[test]
    fn nu_matches_figure_3a() {
        // The paper: ⟨25, 2⟩ expires at time 10 (count drops 2 → 1).
        let p = vec![row(1, 25, 10), row(2, 25, 15)];
        let mut f = apply(AggFunc::Count);
        assert_eq!(nu(Time::ZERO, &p, &mut f).unwrap(), Time::new(10));
        // The deg=35 partition: single tuple, count drops to ∅ at 10.
        let q = vec![row(3, 35, 10)];
        let mut f = apply(AggFunc::Count);
        assert_eq!(nu(Time::ZERO, &q, &mut f).unwrap(), Time::new(10));
    }

    #[test]
    fn nu_is_infinity_when_value_never_changes() {
        // An immortal tuple pins count at 1 after the mortal one leaves?
        // No — count changes when the mortal tuple leaves. Use min pinned
        // by an immortal achiever instead.
        let p = vec![row(1, 5, 0), row(2, 9, 7)];
        let mut f = apply(AggFunc::Min(1));
        assert_eq!(nu(Time::ZERO, &p, &mut f).unwrap(), Time::INFINITY);
        let mut f = apply(AggFunc::Count);
        assert_eq!(nu(Time::ZERO, &p, &mut f).unwrap(), Time::new(7));
    }

    #[test]
    fn nu_respects_query_time_tau() {
        let p = vec![row(1, 25, 10), row(2, 25, 15)];
        let mut f = apply(AggFunc::Count);
        // Queried at 12, the count is already 1 and next changes at 15.
        assert_eq!(nu(Time::new(12), &p, &mut f).unwrap(), Time::new(15));
    }

    #[test]
    fn nu_agrees_with_naive_oracle() {
        let partitions = vec![
            vec![row(1, 25, 10), row(2, 25, 15)],
            vec![row(1, 5, 3), row(2, 5, 3), row(3, 7, 8)],
            vec![row(1, 0, 4), row(2, 0, 6)],
            vec![row(1, 2, 0), row(2, 3, 5)],
        ];
        for p in partitions {
            for func in [
                AggFunc::Count,
                AggFunc::Min(1),
                AggFunc::Max(1),
                AggFunc::Sum(1),
                AggFunc::Avg(1),
            ] {
                let mut f1 = apply(func);
                let mut f2 = apply(func);
                let fast = nu(Time::ZERO, &p, &mut f1).unwrap();
                let slow = nu_naive(Time::ZERO, &p, &mut f2, Time::new(100)).unwrap();
                match slow {
                    Some(t) => assert_eq!(fast, t, "{func} on {p:?}"),
                    None => assert_eq!(fast, Time::INFINITY, "{func} on {p:?}"),
                }
            }
        }
    }

    #[test]
    fn chi_flags_the_tick_before_a_change() {
        let p = vec![row(1, 25, 10), row(2, 25, 15)];
        let mut f = apply(AggFunc::Count);
        assert!(!chi(Time::new(8), &p, &mut f).unwrap());
        let mut f = apply(AggFunc::Count);
        assert!(chi(Time::new(9), &p, &mut f).unwrap(), "2 at 9, 1 at 10");
        let mut f = apply(AggFunc::Count);
        assert!(!chi(Time::new(10), &p, &mut f).unwrap());
    }

    #[test]
    fn sum_with_cancelling_slice_skips_a_change_point() {
        // Slice at 4 sums to zero: sum is 7 before and after time 4.
        let p = vec![row(1, 3, 4), row(2, -3, 4), row(3, 7, 9)];
        let mut f = apply(AggFunc::Sum(1));
        let tl = value_timeline(Time::ZERO, &p, &mut f).unwrap();
        assert_eq!(
            tl,
            vec![(Time::ZERO, Some(Value::Int(7))), (Time::new(9), None)]
        );
        let mut f = apply(AggFunc::Sum(1));
        assert_eq!(nu(Time::ZERO, &p, &mut f).unwrap(), Time::new(9));
    }

    #[test]
    fn tuple_validity_covers_exactly_the_original_value() {
        // min: 5 until 6 (achiever dies), then 9 until 12, then ∅.
        // Value can return: min goes 5 → 9; never back to 5, so validity is
        // a single interval [0, 6[.
        let p = vec![row(1, 5, 6), row(2, 9, 12)];
        let mut f = apply(AggFunc::Min(1));
        let iv = tuple_validity(Time::ZERO, &p, &mut f).unwrap();
        assert_eq!(iv.intervals().len(), 1);
        assert!(iv.contains(Time::new(5)));
        assert!(!iv.contains(Time::new(6)));
        assert!(!iv.contains(Time::new(20)));
    }

    #[test]
    fn tuple_validity_can_be_disjoint_when_value_recurs() {
        // sum: 5 (both alive: 5 + 0-slice? no) — construct recurrence:
        // values 5@10, -5@10... sum = 0+5? Use: +5 dies at 3, sum 8→3;
        // then +5 appears? Tuples only expire, so a value recurs if
        // cancellation brings it back: {5@3, -5@7, 8@9}: sum=8 on [0,3[,
        // 3 on [3,7[, 8 again on [7,9[, ∅ after.
        let p = vec![row(1, 5, 3), row(2, -5, 7), row(3, 8, 9)];
        let mut f = apply(AggFunc::Sum(1));
        let iv = tuple_validity(Time::ZERO, &p, &mut f).unwrap();
        assert_eq!(iv.intervals().len(), 2);
        assert!(iv.contains(Time::new(2)));
        assert!(!iv.contains(Time::new(4)));
        assert!(iv.contains(Time::new(7)));
        assert!(iv.contains(Time::new(8)));
        assert!(!iv.contains(Time::new(9)));
    }

    #[test]
    fn change_count_is_bounded_by_partition_size() {
        let p = vec![row(1, 1, 2), row(2, 2, 4), row(3, 3, 6)];
        let mut f = apply(AggFunc::Sum(1));
        let c = change_count(Time::ZERO, &p, &mut f).unwrap();
        assert!(c <= p.len());
        assert_eq!(c, 3, "each expiry changes the sum; final change to ∅");
        // Deterministic f over a partition of n tuples: ≤ n values
        // (Section 3.4.1).
    }

    #[test]
    fn nu_naive_returns_none_past_horizon() {
        let p = vec![row(1, 1, 50)];
        let mut f = apply(AggFunc::Count);
        assert_eq!(
            nu_naive(Time::ZERO, &p, &mut f, Time::new(10)).unwrap(),
            None
        );
    }
}
