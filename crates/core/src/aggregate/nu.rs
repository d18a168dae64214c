//! The χ/ν change-point machinery (paper Equation 9 and Section 3.4.1).
//!
//! The paper defines
//!
//! ```text
//! χ(τ, P, f) ≡ f(expτ(P)) ≠ f(expτ+1(P))
//! ν(τ, P, f) = min{ τ′ | τ′ ≥ τ ∧ χ(τ′, P, f) }
//! ```
//!
//! and assigns aggregation result tuples the expiration time at which their
//! aggregate value first changes. As the paper notes, "the functions χ and ν
//! are best calculated when the actual aggregate values … are computed"
//! rather than by naive per-tick translation: the aggregate value over
//! `expτ′(P)` is piecewise constant in `τ′` and can only change at the
//! distinct expiration times of the partition's tuples.
//!
//! There are two readings of that here, and they are kept apart.
//!
//! **Production: [`first_change`].** An evaluation needs one number per
//! partition — the first change point — so that is all it computes, off
//! what the partition's group keeps (see [`super`]), and it stops at the
//! first time slice whose value differs from the one at `τ`. Each
//! standard function has its own rule. Count: the earliest expiration,
//! from the group's summary. Min/max: the latest expiration among the
//! values holding the extreme. INT sum/avg: one linear pass totals the
//! earliest slice, whose departure almost always changes the value; only
//! a slice that cancels costs a sort by `texp`, after which an exact
//! running total is carried from slice to slice — delta summation over
//! the sorted change points. FLOAT sum/avg have no such shortcut: `f64`
//! addition is not associative, so a running total and a fresh fold of
//! the survivors can differ in the last bit, and the value a
//! recomputation would emit is by definition
//! [`AggFunc::apply`](super::AggFunc::apply) over the survivors in input
//! order. For those, each slice folds the surviving values again (in
//! place), and still stops at the first difference.
//!
//! **Oracle: [`value_timeline`], [`nu`], [`nu_naive`].** The
//! closure-generic definitions — any deterministic `f`, the whole
//! timeline, `f` re-applied to a copy of the survivors at every slice
//! (`O(k·n)`), or at every tick. They are what `first_change` is
//! property-tested against, what the tolerance-based [`approx`](super::approx)
//! and the validity/change-count functions below are built from, and the
//! baselines of experiments E4/E9 and criterion `aggregate/nu`. Nothing on the evaluation
//! path calls them (repolint R006).
//!
//! One convention note: with `texp` semantics "visible while `now < texp`",
//! the right expiration time for a result tuple whose value first *differs*
//! at instant `e` is `e` itself (the tuple is correct through `e − 1` and
//! must be gone at `e`). The paper's literal `ν` is the `τ′` with
//! `χ(τ′) = true`, i.e. `e − 1`; assigning that would hide the tuple one
//! tick early and contradict the paper's own Figure 3(a), where `⟨25, 2⟩`
//! "expires at 10" (not 9). [`nu`] and [`first_change`] therefore return
//! the first instant at which the value differs — `ν_literal + 1` — which
//! is the quantity every use site in the paper actually needs.

use super::{AggFunc, Partitions, Row};
use crate::error::Result;
use crate::interval::{Interval, IntervalSet};
use crate::time::Time;
use crate::value::Value;

/// An aggregate function as the paper treats it abstractly: any
/// deterministic map from a set of tuples to a value, `None` on `∅`.
/// [`super::AggFunc::apply`] is the standard instance.
pub type AggFn<'a> = &'a mut dyn FnMut(&[Row]) -> Result<Option<Value>>;

/// The surviving rows `expτ(P)` of a partition.
fn surviving(partition: &[Row], tau: Time) -> Vec<Row> {
    partition
        .iter()
        .filter(|(_, e)| *e > tau)
        .cloned()
        .collect()
}

/// The only instants after `τ` at which the aggregate value can change:
/// the distinct finite expiration times among `texps`, ascending.
pub(super) fn event_times(tau: Time, texps: impl IntoIterator<Item = Time>) -> Vec<Time> {
    let mut events: Vec<Time> = texps
        .into_iter()
        .filter(|e| e.is_finite() && *e > tau)
        .collect();
    events.sort_unstable();
    events.dedup();
    events
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
/// correct expiration time for a result tuple materialised at `τ` (see the
/// module docs for the one-tick convention). Returns [`Time::INFINITY`] if
/// the value never changes (e.g. the partition contains `∞` rows that pin
/// it forever).
///
/// Read off the whole [`value_timeline`]: `O(k · cost(f))` for `k`
/// distinct expiration times, versus the per-tick `O(range · cost(f))` of
/// [`nu_naive`]. The definition for an arbitrary `f`; evaluation uses
/// [`first_change`].
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

/// ν for the standard functions, as evaluation computes it: equal to
/// [`nu`] over [`AggFunc::apply`] (property-tested). The rows alive at `τ`
/// are grouped as an evaluation groups them, keeping only what `f` reads,
/// and the group's first change point is found without a timeline; the
/// module docs give the per-function rules.
///
/// # Errors
///
/// Propagates [`Error::NonNumericAggregate`](crate::error::Error) from `f`.
pub fn first_change(tau: Time, partition: &[Row], f: AggFunc) -> Result<Time> {
    let mut whole = Partitions::new(&[], f, false);
    for (t, e) in partition.iter().filter(|(_, e)| *e > tau) {
        whole.push(t, *e);
    }
    match whole.into_groups().pop() {
        Some(mut group) => group.first_change(f),
        None => Ok(Time::INFINITY),
    }
}

/// Delta summation over a group's INT values, whose exact total is `sum`
/// and earliest expiration `earliest`. One linear pass totals the earliest
/// time slice; if its departure changes the value — almost always — that
/// is the answer. Only a slice that cancels costs a sort by `texp`, after
/// which the exact total and count are carried from each slice to the
/// next.
pub(super) fn first_change_of_ints(
    ints: &mut [(Time, i64)],
    sum: i128,
    earliest: Time,
    f: AggFunc,
) -> Time {
    if !earliest.is_finite() {
        return Time::INFINITY;
    }
    let (mut slice, mut k) = (0i128, 0);
    for &(e, v) in ints.iter() {
        if e == earliest {
            slice += i128::from(v);
            k += 1;
        }
    }
    let original = f.of_int_sum(sum, ints.len());
    let (mut sum, mut n) = (sum - slice, ints.len() - k);
    if n == 0 || f.of_int_sum(sum, n) != original {
        return earliest;
    }
    ints.sort_unstable_by_key(|(e, _)| *e);
    let mut rest = &ints[k..];
    while let Some(&(at, _)) = rest.first().filter(|(e, _)| e.is_finite()) {
        let (slice, later) = rest.split_at(rest.partition_point(|(e, _)| *e == at));
        sum -= slice.iter().map(|&(_, v)| i128::from(v)).sum::<i128>();
        n -= slice.len();
        if n == 0 || f.of_int_sum(sum, n) != original {
            return at;
        }
        rest = later;
    }
    Time::INFINITY
}

/// ν over a group's values of any type. `min`/`max`: the latest expiration
/// among the values holding the extreme. `sum`/`avg` with a FLOAT (or an
/// untyped extreme): the definition, without the copies — at each distinct
/// expiration time in turn, `f` folded over the survivors in push order,
/// until the value differs from the one now.
pub(super) fn first_change_of_values(values: &[(Time, Value)], f: AggFunc) -> Result<Time> {
    let at = |now: Time| f.fold(values.iter().filter(|(e, _)| *e > now).map(|(_, v)| v));
    let original = f
        .fold(values.iter().map(|(_, v)| v))?
        .expect("a group is never empty");
    if let AggFunc::Min(_) | AggFunc::Max(_) = f {
        let holders = values
            .iter()
            .filter(|(_, v)| v.total_cmp(&original).is_eq());
        // While one holder lives the extreme is held; when the last goes,
        // what is left is strictly beyond it, or nothing. Only an untyped
        // column can hold `2` and `2.0` at once, and then which of them is
        // emitted depends on who is left.
        if holders.clone().all(|(_, v)| *v == original) {
            return Ok(holders.map(|(e, _)| *e).max().expect("the extreme is held"));
        }
    }
    for e in event_times(Time::ZERO, values.iter().map(|r| r.0)) {
        if at(e)?.as_ref() != Some(&original) {
            return Ok(e);
        }
    }
    Ok(Time::INFINITY)
}

/// The literal per-tick evaluation of ν (then shifted by the one-tick
/// convention): walks `τ, τ+1, τ+2, …` applying `f` at every tick until the
/// value changes or `horizon` is reached (`None` past the horizon). Kept as
/// a differential-testing oracle and ablation baseline — use [`nu`] in real
/// code.
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

/// The instant the partition fully expires, `max{texp_P(t) | t ∈ P}`
/// (the paper's formula for `min{τ′ | expτ′(P) = ∅}`); `∞` if any row
/// never expires, `None` on an empty partition.
#[must_use]
pub fn partition_death(partition: &[Row]) -> Option<Time> {
    Time::max_of(partition.iter().map(|(_, e)| *e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::tuple;

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
    fn partition_death_matches_paper_formula() {
        assert_eq!(
            partition_death(&[row(1, 1, 4), row(2, 2, 9)]),
            Some(Time::new(9))
        );
        assert_eq!(
            partition_death(&[row(1, 1, 4), row(2, 2, 0)]),
            Some(Time::INFINITY)
        );
        assert_eq!(partition_death(&[]), None);
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
