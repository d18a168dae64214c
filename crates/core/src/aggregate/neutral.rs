//! Neutral sets, time-sliced sets, and contributing sets (paper Table 1,
//! Definition 2).
//!
//! A *time-sliced* set is a set of tuples with identical expiration times; a
//! set is *neutral* with respect to an aggregate function if removing it
//! changes neither the aggregate value nor its expiration time. The
//! *contributing set* `C_{f,P} = P − ⋃ N` removes all time-sliced neutral
//! subsets; the aggregation result tuple for partition `P` then gets
//!
//! ```text
//! texp(t) = min{ texp(l) | l ∈ C_{f,P} }   if C_{f,P} ≠ ∅
//!           max{ texp(l) | l ∈ P }         if C_{f,P} = ∅
//! ```
//!
//! Operationally: tuples expire in ascending order of their (finite)
//! expiration times, one *time slice* at a time. As long as every expired
//! slice is neutral, the aggregate value is untouched; the result tuple
//! therefore lives until the first **non-neutral** slice expires. Tuples
//! with `texp = ∞` never expire and so never need to be neutral; if they
//! keep the value pinned (e.g. an `∞`-lived minimum), the result lives
//! forever.

use super::{AggFunc, Row};
use crate::error::{Error, Result};
use crate::time::Time;

/// Splits a partition into time slices: `(texp, rows)` for each distinct
/// *finite* expiration time, ascending, followed by no entry for `∞` rows
/// (returned separately as the second component — they never expire).
#[must_use]
pub fn time_slices(partition: &[Row]) -> (Vec<(Time, Vec<Row>)>, Vec<Row>) {
    let mut finite: Vec<Row> = Vec::new();
    let mut immortal: Vec<Row> = Vec::new();
    for row in partition {
        if row.1.is_finite() {
            finite.push(row.clone());
        } else {
            immortal.push(row.clone());
        }
    }
    finite.sort_by_key(|(_, e)| *e);
    let mut slices: Vec<(Time, Vec<Row>)> = Vec::new();
    for row in finite {
        match slices.last_mut() {
            Some((e, rows)) if *e == row.1 => rows.push(row),
            _ => slices.push((row.1, vec![row])),
        }
    }
    (slices, immortal)
}

/// Whether the time-sliced set `slice` is neutral with respect to `f` in
/// partition `partition`, per the predicates of Table 1. For `sum` and
/// `avg` the predicates are decided exactly, over a partition of INTs;
/// a partition holding a FLOAT has no non-empty neutral slice. So no
/// slice deemed neutral changes the value: the contributing bound never
/// passes ν.
///
/// # Errors
///
/// Propagates numeric-view errors for `sum`/`avg` over non-numeric values.
pub fn is_neutral(slice: &[Row], partition: &[Row], f: AggFunc) -> Result<bool> {
    if slice.is_empty() {
        return Ok(true); // ∅ is neutral for every aggregate.
    }
    match f {
        AggFunc::Count => Ok(false), // only ∅ is neutral for count.
        AggFunc::Min(i) => {
            let min = match f.apply(partition)? {
                Some(v) => v,
                None => return Ok(true),
            };
            // The latest-expiring tuple(s) achieving the minimum.
            let max_achiever_texp = partition
                .iter()
                .filter(|(t, _)| t.attr(i).total_cmp(&min).is_eq())
                .map(|(_, e)| *e)
                .max()
                .expect("minimum is achieved");
            Ok(slice
                .iter()
                .all(|(t, e)| t.attr(i).total_cmp(&min).is_gt() || *e < max_achiever_texp))
        }
        AggFunc::Max(i) => {
            let max = match f.apply(partition)? {
                Some(v) => v,
                None => return Ok(true),
            };
            let max_achiever_texp = partition
                .iter()
                .filter(|(t, _)| t.attr(i).total_cmp(&max).is_eq())
                .map(|(_, e)| *e)
                .max()
                .expect("maximum is achieved");
            Ok(slice
                .iter()
                .all(|(t, e)| t.attr(i).total_cmp(&max).is_lt() || *e < max_achiever_texp))
        }
        // Σ_{t∈N} t(i) = 0. Over a FLOAT, removing even an INT slice that
        // sums to 0 changes the left-to-right `f64` fold: 0.1 + 1 − 1 is
        // not 0.1.
        AggFunc::Sum(i) => Ok(total(slice, i, f)? == Some(0) && total(partition, i, f)?.is_some()),
        // Σ_{t∈N} t(i) = (|N| / |P|) Σ_{r∈P} r(i)
        AggFunc::Avg(i) => {
            let (Some(all), Some(s)) = (total(partition, i, f)?, total(slice, i, f)?) else {
                return Ok(false);
            };
            let (n, p) = (slice.len() as i128, partition.len() as i128);
            Ok(s * p == n * all && all.unsigned_abs() <= EXACT_F64)
        }
    }
}

/// The largest integer magnitude up to which every integer is an `f64`.
/// An INT `avg` is emitted as `total as f64 / n as f64`; when `|Σ_P|` is at
/// most this, so is the total left after removing any union of slices of
/// `P`'s mean, and each such quotient is the one correctly rounded `f64` of
/// the same rational. A larger total is rounded before the division, and
/// the rounding can differ from one survivor set to the next: three rows of
/// `2⁶⁰ + 127` average to `2⁶⁰ + 256`, two of them to `2⁶⁰`.
const EXACT_F64: u128 = 1 << 53;

/// The exact total of attribute `i` over `rows`, or `None` if a value is
/// not an INT.
fn total(rows: &[Row], i: usize, f: AggFunc) -> Result<Option<i128>> {
    let mut ints = Some(0i128);
    for (t, _) in rows {
        let v = t.attr(i);
        v.as_numeric().ok_or(Error::NonNumericAggregate {
            function: f.name(),
            attribute: i,
        })?;
        ints = ints.zip(v.as_int()).map(|(s, x)| s + i128::from(x));
    }
    Ok(ints)
}

/// The contributing set `C_{f,P}` of Definition 2: the partition minus every
/// time-sliced neutral subset. Tuples with `texp = ∞` always contribute —
/// they never expire, so they are never candidates for neutral removal.
///
/// # Errors
///
/// Propagates numeric-view errors from the neutrality predicates.
pub fn contributing_set(partition: &[Row], f: AggFunc) -> Result<Vec<Row>> {
    let (slices, immortal) = time_slices(partition);
    let mut out = immortal;
    for (_, slice) in &slices {
        if !is_neutral(slice, partition, f)? {
            out.extend(slice.iter().cloned());
        }
    }
    Ok(out)
}

/// The expiration time of an aggregation result tuple under the
/// contributing-set rule:
///
/// * `min{texp(l) | l ∈ C_{f,P}}` if the contributing set is non-empty;
/// * `max{texp(l) | l ∈ P}` otherwise (the value stays correct until the
///   whole partition expires — e.g. `sum` over all-zero values).
///
/// # Errors
///
/// Propagates numeric-view errors; panics on an empty partition (callers
/// aggregate only non-empty partitions, per Equation 8).
pub fn contributing_texp(partition: &[Row], f: AggFunc) -> Result<Time> {
    assert!(
        !partition.is_empty(),
        "contributing_texp requires a non-empty partition"
    );
    let c = contributing_set(partition, f)?;
    Ok(match Time::min_of(c.iter().map(|(_, e)| *e)) {
        Some(t) => t,
        None => Time::max_of(partition.iter().map(|(_, e)| *e)).expect("non-empty"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn row(a: i64, v: i64, e: u64) -> Row {
        (
            tuple![a, v],
            if e == 0 { Time::INFINITY } else { Time::new(e) },
        )
    }

    #[test]
    fn time_slices_group_and_sort() {
        let p = vec![row(1, 1, 7), row(2, 2, 3), row(3, 3, 7), row(4, 4, 0)];
        let (slices, immortal) = time_slices(&p);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].0, Time::new(3));
        assert_eq!(slices[0].1.len(), 1);
        assert_eq!(slices[1].0, Time::new(7));
        assert_eq!(slices[1].1.len(), 2);
        assert_eq!(immortal.len(), 1);
    }

    #[test]
    fn count_admits_only_empty_neutral_sets() {
        let p = vec![row(1, 1, 5)];
        assert!(is_neutral(&[], &p, AggFunc::Count).unwrap());
        assert!(!is_neutral(&p, &p, AggFunc::Count).unwrap());
        // Hence contributing texp == naive min texp.
        assert_eq!(contributing_texp(&p, AggFunc::Count).unwrap(), Time::new(5));
    }

    #[test]
    fn min_ignores_larger_values_and_shorter_lived_achievers() {
        // min = 10, achieved at texp 8 and texp 20. A slice with value 30
        // (any texp) is neutral; the achiever at 8 is neutral (a later
        // achiever exists); the achiever at 20 is not.
        let p = vec![row(1, 10, 8), row(2, 10, 20), row(3, 30, 5)];
        let (slices, _) = time_slices(&p);
        assert!(is_neutral(&slices[0].1, &p, AggFunc::Min(1)).unwrap()); // texp 5, value 30
        assert!(is_neutral(&slices[1].1, &p, AggFunc::Min(1)).unwrap()); // texp 8, achiever but not last
        assert!(!is_neutral(&slices[2].1, &p, AggFunc::Min(1)).unwrap()); // texp 20, pins the min
        assert_eq!(
            contributing_texp(&p, AggFunc::Min(1)).unwrap(),
            Time::new(20)
        );
    }

    #[test]
    fn max_is_symmetric_to_min() {
        let p = vec![row(1, 50, 8), row(2, 50, 20), row(3, 30, 5)];
        assert_eq!(
            contributing_texp(&p, AggFunc::Max(1)).unwrap(),
            Time::new(20)
        );
        // If the short-lived tuple held the max alone, it pins the result.
        let q = vec![row(1, 90, 4), row(2, 50, 20)];
        assert_eq!(
            contributing_texp(&q, AggFunc::Max(1)).unwrap(),
            Time::new(4)
        );
    }

    #[test]
    fn immortal_achiever_makes_min_eternal() {
        let p = vec![row(1, 10, 0), row(2, 30, 5)];
        assert_eq!(
            contributing_texp(&p, AggFunc::Min(1)).unwrap(),
            Time::INFINITY
        );
    }

    #[test]
    fn sum_zero_slices_are_neutral() {
        // Slice at texp 5 sums to zero → neutral; slice at 9 does not.
        let p = vec![row(1, 4, 5), row(2, -4, 5), row(3, 7, 9)];
        let (slices, _) = time_slices(&p);
        assert!(is_neutral(&slices[0].1, &p, AggFunc::Sum(1)).unwrap());
        assert!(!is_neutral(&slices[1].1, &p, AggFunc::Sum(1)).unwrap());
        assert_eq!(
            contributing_texp(&p, AggFunc::Sum(1)).unwrap(),
            Time::new(9)
        );
    }

    #[test]
    fn all_zero_sum_keeps_value_until_partition_death() {
        // Paper's example for C = ∅: all values zero under sum.
        let p = vec![row(1, 0, 5), row(2, 0, 9)];
        let c = contributing_set(&p, AggFunc::Sum(1)).unwrap();
        assert!(c.is_empty());
        assert_eq!(
            contributing_texp(&p, AggFunc::Sum(1)).unwrap(),
            Time::new(9),
            "C = ∅ ⇒ max texp over partition"
        );
    }

    #[test]
    fn avg_slice_at_overall_mean_is_neutral() {
        // Mean = 10. Slice {10, 10} at texp 4 has slice mean 10 → neutral.
        // (Note a two-slice partition cannot have exactly one neutral
        // slice: the complement of a mean-preserving slice preserves the
        // mean too — hence three slices here.)
        let p = vec![row(1, 10, 4), row(2, 10, 4), row(3, 5, 9), row(4, 15, 12)];
        let (slices, _) = time_slices(&p);
        assert!(is_neutral(&slices[0].1, &p, AggFunc::Avg(1)).unwrap());
        assert!(!is_neutral(&slices[1].1, &p, AggFunc::Avg(1)).unwrap());
        assert!(!is_neutral(&slices[2].1, &p, AggFunc::Avg(1)).unwrap());
        assert_eq!(
            contributing_texp(&p, AggFunc::Avg(1)).unwrap(),
            Time::new(9)
        );
    }

    /// `10¹² + 1` is within any relative tolerance of `10¹²`, but its
    /// departure at 3 changes the average: the slice is not neutral, and
    /// the contributing bound must not outlive the exact one.
    #[test]
    fn an_int_slice_that_moves_the_average_is_not_neutral() {
        const BIG: i64 = 1_000_000_000_000;
        let p = vec![row(1, BIG, 10), row(2, BIG + 1, 3)];
        let exact = crate::aggregate::nu::first_change(Time::ZERO, &p, AggFunc::Avg(1)).unwrap();
        assert_eq!(exact, Time::new(3));
        assert_eq!(contributing_texp(&p, AggFunc::Avg(1)).unwrap(), exact);
    }

    /// Every slice of three equal values has the partition's mean, but
    /// past 2⁵³ the `f64` average of three is not that of two.
    #[test]
    fn an_int_mean_past_f64_precision_is_not_neutral() {
        const V: i64 = (1 << 60) + 127;
        let p = vec![row(1, V, 3), row(2, V, 6), row(3, V, 9)];
        let exact = crate::aggregate::nu::first_change(Time::ZERO, &p, AggFunc::Avg(1)).unwrap();
        assert_eq!(exact, Time::new(3), "2⁶⁰ + 256, then 2⁶⁰");
        assert_eq!(contributing_texp(&p, AggFunc::Avg(1)).unwrap(), exact);
        let small = vec![row(1, 7, 3), row(2, 7, 6), row(3, 7, 9)];
        assert_eq!(
            contributing_texp(&small, AggFunc::Avg(1)).unwrap(),
            Time::new(9),
            "below 2⁵³ a slice at the mean is neutral"
        );
    }

    /// Over a FLOAT no slice is neutral: `{0.1, 0.2, −0.3}` sums to
    /// 5.6e-17, and an INT `{1, −1}` beside a FLOAT leaves the `f64` fold
    /// at 0.10000000000000009, not 0.1. Each value changes at 5.
    #[test]
    fn a_partition_holding_a_float_has_no_neutral_slice() {
        let float = |v: f64, e: u64| (tuple![0, v], Time::new(e));
        let int = |v: i64, e: u64| (tuple![0, v], Time::new(e));
        let near_zero = vec![
            float(0.1, 5),
            float(0.2, 5),
            float(-0.3, 5),
            float(1e-20, 10),
        ];
        let mixed = vec![float(0.1, 10), int(1, 5), int(-1, 5)];
        for p in [near_zero, mixed] {
            for f in [AggFunc::Sum(1), AggFunc::Avg(1)] {
                let exact = crate::aggregate::nu::first_change(Time::ZERO, &p, f).unwrap();
                assert_eq!(exact, Time::new(5), "{f} on {p:?}");
                assert_eq!(contributing_texp(&p, f).unwrap(), exact, "{f} on {p:?}");
            }
        }
    }

    #[test]
    fn contributing_set_lists_non_neutral_rows() {
        let p = vec![row(1, 4, 5), row(2, -4, 5), row(3, 7, 9)];
        let c = contributing_set(&p, AggFunc::Sum(1)).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, tuple![3, 7]);
    }

    #[test]
    fn contributing_bound_never_shorter_than_naive() {
        // Property spot check across functions on a mixed partition.
        let p = vec![row(1, 3, 2), row(2, -3, 2), row(3, 8, 6), row(4, 1, 10)];
        let naive = Time::min_of(p.iter().map(|(_, e)| *e)).unwrap();
        for f in [
            AggFunc::Min(1),
            AggFunc::Max(1),
            AggFunc::Sum(1),
            AggFunc::Avg(1),
            AggFunc::Count,
        ] {
            let c = contributing_texp(&p, f).unwrap();
            assert!(c >= naive, "{f}: {c} >= {naive}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_partition_panics() {
        let _ = contributing_texp(&[], AggFunc::Count);
    }
}
