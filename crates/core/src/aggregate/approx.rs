//! Approximate aggregate validity with error bounds (paper Section 5,
//! future work: "if we are interested in maintaining, e.g., aggregate
//! values with certain error bounds, we might be able to improve
//! performance").
//!
//! Exact ν expires an aggregation result tuple the instant its value
//! changes *at all*. Under a [`Tolerance`], the tuple instead remains
//! valid while the current value stays within the bound of the value it
//! was materialised with — extending lifetimes (and thus shrinking
//! recomputation and synchronisation traffic) in exchange for bounded
//! staleness. A result tuple still expires unconditionally when its
//! partition fully dies (an approximate value for "no rows" is not a
//! thing).

use super::{AggFunc, Row};
use crate::error::Result;
use crate::interval::{Interval, IntervalSet};
use crate::time::Time;

/// An error bound on a numeric aggregate value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// `|v − v₀| ≤ bound`.
    Absolute(f64),
    /// `|v − v₀| ≤ bound · |v₀|` (with `v₀ = 0` degrading to exact
    /// equality, the only sound reading).
    Relative(f64),
}

impl Tolerance {
    /// Whether `current` is acceptable as an approximation of
    /// `original`.
    #[must_use]
    pub fn accepts(&self, original: f64, current: f64) -> bool {
        let err = (current - original).abs();
        match *self {
            Tolerance::Absolute(b) => err <= b,
            Tolerance::Relative(b) => err <= b * original.abs(),
        }
    }
}

/// The numeric value of `f` over the rows surviving at `tau`, or `None`
/// on an empty partition / non-numeric result.
fn numeric_at(f: AggFunc, partition: &[Row], tau: Time) -> Result<Option<f64>> {
    let surviving: Vec<Row> = partition
        .iter()
        .filter(|(_, e)| *e > tau)
        .cloned()
        .collect();
    Ok(f.apply(&surviving)?.and_then(|v| v.as_numeric()))
}

/// The expiration time of an aggregation result tuple under a tolerance:
/// the first instant at which the aggregate value drifts outside the
/// bound of its materialisation-time value, or the partition dies.
/// Always `≥` the exact ν.
///
/// # Errors
///
/// Propagates aggregation errors. Returns the exact ν behaviour for
/// non-numeric aggregates (strings under min/max), where "approximately
/// equal" has no meaning.
pub fn tolerant_texp(
    tau: Time,
    partition: &[Row],
    f: AggFunc,
    tolerance: Tolerance,
) -> Result<Time> {
    let Some(original) = numeric_at(f, partition, tau)? else {
        // Empty partition at τ or non-numeric value: defer to exact ν.
        let mut apply = |rows: &[Row]| f.apply(rows);
        return super::nu::nu(tau, partition, &mut apply);
    };
    for e in super::nu::event_times(tau, partition) {
        match numeric_at(f, partition, e)? {
            Some(v) if tolerance.accepts(original, v) => {}
            _ => return Ok(e), // drifted out of bounds, or partition died
        }
    }
    Ok(Time::INFINITY)
}

/// The validity intervals of an approximate aggregate: all instants at
/// which the (live) value is within tolerance of the value at `τ`.
///
/// # Errors
///
/// Propagates aggregation errors.
pub fn tolerant_validity(
    tau: Time,
    partition: &[Row],
    f: AggFunc,
    tolerance: Tolerance,
) -> Result<IntervalSet> {
    let Some(original) = numeric_at(f, partition, tau)? else {
        let mut apply = |rows: &[Row]| f.apply(rows);
        return super::nu::tuple_validity(tau, partition, &mut apply);
    };
    let events = super::nu::event_times(tau, partition);
    let mut ivs = Vec::new();
    let mut start = Some(tau); // value at τ is trivially within tolerance
    let mut prev = tau;
    for e in events {
        let ok = matches!(numeric_at(f, partition, e)?, Some(v) if tolerance.accepts(original, v));
        match (start, ok) {
            (Some(_), true) | (None, false) => {}
            (Some(s), false) => {
                ivs.push(Interval::new(s, e));
                start = None;
            }
            (None, true) => start = Some(e),
        }
        prev = e;
    }
    let _ = prev;
    if let Some(s) = start {
        ivs.push(Interval::from(s));
    }
    Ok(IntervalSet::from_intervals(ivs))
}

/// The worst observed error (absolute) while a tolerant result tuple is
/// alive — the quantity an application trades for the extended lifetime.
/// Returns 0.0 for lifetimes that ν would also have allowed.
///
/// # Errors
///
/// Propagates aggregation errors.
pub fn max_error_within(tau: Time, partition: &[Row], f: AggFunc, until: Time) -> Result<f64> {
    let Some(original) = numeric_at(f, partition, tau)? else {
        return Ok(0.0);
    };
    let mut worst: f64 = 0.0;
    let events = super::nu::event_times(tau, partition);
    for e in events.into_iter().take_while(|e| *e < until) {
        if let Some(v) = numeric_at(f, partition, e)? {
            worst = worst.max((v - original).abs());
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn row(v: i64, e: u64) -> Row {
        (
            tuple![0, v],
            if e == 0 { Time::INFINITY } else { Time::new(e) },
        )
    }

    #[test]
    fn tolerance_acceptance() {
        assert!(Tolerance::Absolute(2.0).accepts(10.0, 11.5));
        assert!(!Tolerance::Absolute(2.0).accepts(10.0, 12.5));
        assert!(Tolerance::Relative(0.1).accepts(100.0, 109.0));
        assert!(!Tolerance::Relative(0.1).accepts(100.0, 111.0));
        // v₀ = 0: relative degrades to exact equality.
        assert!(Tolerance::Relative(0.5).accepts(0.0, 0.0));
        assert!(!Tolerance::Relative(0.5).accepts(0.0, 0.1));
    }

    #[test]
    fn zero_tolerance_equals_exact_nu() {
        let p = vec![row(10, 5), row(20, 9), row(30, 13)];
        for f in [AggFunc::Sum(1), AggFunc::Avg(1), AggFunc::Count] {
            let mut apply = |rows: &[Row]| f.apply(rows);
            let exact = crate::aggregate::nu::nu(Time::ZERO, &p, &mut apply).unwrap();
            let tol = tolerant_texp(Time::ZERO, &p, f, Tolerance::Absolute(0.0)).unwrap();
            assert_eq!(exact, tol, "{f}");
        }
    }

    #[test]
    fn tolerance_extends_lifetime_monotonically() {
        // sum = 60; expiries at 5 (−10), 9 (−20), 13 (−30, death).
        let p = vec![row(10, 5), row(20, 9), row(30, 13)];
        let f = AggFunc::Sum(1);
        let t0 = tolerant_texp(Time::ZERO, &p, f, Tolerance::Absolute(0.0)).unwrap();
        let t10 = tolerant_texp(Time::ZERO, &p, f, Tolerance::Absolute(10.0)).unwrap();
        let t30 = tolerant_texp(Time::ZERO, &p, f, Tolerance::Absolute(30.0)).unwrap();
        let t99 = tolerant_texp(Time::ZERO, &p, f, Tolerance::Absolute(99.0)).unwrap();
        assert_eq!(t0, Time::new(5));
        assert_eq!(t10, Time::new(9), "tolerates the −10 drop");
        assert_eq!(t30, Time::new(13), "tolerates −30 cumulative");
        assert_eq!(t99, Time::new(13), "partition death still expires");
        assert!(t0 <= t10 && t10 <= t30 && t30 <= t99);
    }

    #[test]
    fn relative_tolerance_on_avg() {
        // avg = 20; after 5: avg(20,30)=25 (25% drift); after 9: avg=30.
        let p = vec![row(10, 5), row(20, 9), row(30, 13)];
        let f = AggFunc::Avg(1);
        assert_eq!(
            tolerant_texp(Time::ZERO, &p, f, Tolerance::Relative(0.3)).unwrap(),
            Time::new(9),
            "25% ok at 5, 50% too much at 9"
        );
        assert_eq!(
            tolerant_texp(Time::ZERO, &p, f, Tolerance::Relative(0.5)).unwrap(),
            Time::new(13)
        );
    }

    #[test]
    fn validity_intervals_track_drift_in_and_out() {
        // sum: 5 on [0,3[ (rows +10@7, −5@3): wait — construct re-entry:
        // +4@3, −4@7, base 10@12: sum = 10 on [0,3[? rows: 10@12, 4@3,
        // -4@7 → sum 10 at 0? 10+4-4 = 10. After 3: 10-4 = 6. After 7: 10.
        let p = vec![row(10, 12), row(4, 3), row(-4, 7)];
        let f = AggFunc::Sum(1);
        let v = tolerant_validity(Time::ZERO, &p, f, Tolerance::Absolute(1.0)).unwrap();
        assert!(v.contains(Time::new(2)));
        assert!(!v.contains(Time::new(4)), "drifted to 6, err 4 > 1");
        assert!(v.contains(Time::new(8)), "back to 10 after −4 expires");
        assert!(!v.contains(Time::new(12)), "partition death");
        // Wider tolerance covers the dip too.
        let v = tolerant_validity(Time::ZERO, &p, f, Tolerance::Absolute(5.0)).unwrap();
        assert!(v.contains(Time::new(4)));
    }

    #[test]
    fn max_error_is_bounded_by_the_tolerance_used() {
        let p = vec![row(10, 5), row(20, 9), row(30, 13)];
        let f = AggFunc::Sum(1);
        for bound in [0.0, 10.0, 30.0] {
            let texp = tolerant_texp(Time::ZERO, &p, f, Tolerance::Absolute(bound)).unwrap();
            let err = max_error_within(Time::ZERO, &p, f, texp).unwrap();
            assert!(err <= bound, "observed {err} > bound {bound}");
        }
    }

    #[test]
    fn non_numeric_min_defers_to_exact() {
        let p = vec![
            (tuple![0, "b"], Time::new(5)),
            (tuple![0, "a"], Time::new(9)),
        ];
        // min is "a" pinned to 9; tolerance is meaningless for strings.
        let t = tolerant_texp(Time::ZERO, &p, AggFunc::Min(1), Tolerance::Absolute(5.0)).unwrap();
        assert_eq!(t, Time::new(9));
    }

    #[test]
    fn immortal_rows_allow_infinite_tolerant_life() {
        let p = vec![row(10, 0), row(1, 4)];
        let f = AggFunc::Sum(1);
        // Exact: changes at 4. Tolerant(2): the −1 drop stays in bounds
        // and nothing else ever changes → ∞.
        assert_eq!(
            tolerant_texp(Time::ZERO, &p, f, Tolerance::Absolute(2.0)).unwrap(),
            Time::INFINITY
        );
    }
}
