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
//! An evaluation needs one number per partition — the first change point
//! — so that is all [`first_change`] computes, off what the partition's
//! group keeps (see [`super`]), and it stops at the first time slice
//! whose value differs from the one at `τ`. Each standard function has
//! its own rule. Count: the earliest expiration, from the group's
//! summary. Min/max: the latest expiration among the values holding the
//! extreme. INT sum/avg: one linear pass totals the earliest slice, whose
//! departure almost always changes the value; only a slice that cancels
//! costs a sort by `texp`, after which an exact running total is carried
//! from slice to slice — delta summation over the sorted change points.
//! FLOAT sum/avg have no such shortcut: `f64` addition is not
//! associative, so a running total and a fresh fold of the survivors can
//! differ in the last bit, and the value a recomputation would emit is by
//! definition [`AggFunc::apply`](super::AggFunc::apply) over the
//! survivors in input order. For those, each slice folds the surviving
//! values again (in place), and still stops at the first difference.
//!
//! **Oracle.** The closure-generic definitions — χ, ν over the whole
//! value timeline or tick by tick, the validity intervals and the change
//! count — are the `exptime-literal` crate's `nu` module, which nothing
//! shipped depends on. `first_change` is property-tested against its
//! `nu`.
//!
//! One convention note: with `texp` semantics "visible while `now < texp`",
//! the right expiration time for a result tuple whose value first *differs*
//! at instant `e` is `e` itself (the tuple is correct through `e − 1` and
//! must be gone at `e`). The paper's literal `ν` is the `τ′` with
//! `χ(τ′) = true`, i.e. `e − 1`; assigning that would hide the tuple one
//! tick early and contradict the paper's own Figure 3(a), where `⟨25, 2⟩`
//! "expires at 10" (not 9). [`first_change`] therefore returns the first
//! instant at which the value differs — `ν_literal + 1` — which is the
//! quantity every use site in the paper actually needs.

use super::{AggFunc, Partitions, Row};
use crate::error::Result;
use crate::time::Time;
use crate::value::Value;

/// The only instants after `τ` at which the aggregate value can change:
/// the distinct finite expiration times among `texps`, ascending.
pub fn event_times(tau: Time, texps: impl IntoIterator<Item = Time>) -> Vec<Time> {
    let mut events: Vec<Time> = texps
        .into_iter()
        .filter(|e| e.is_finite() && *e > tau)
        .collect();
    events.sort_unstable();
    events.dedup();
    events
}

/// ν for the standard functions, as evaluation computes it: equal to
/// `exptime-literal`'s `nu` over [`AggFunc::apply`] (property-tested).
/// The rows alive at `τ` are grouped as an evaluation groups them,
/// keeping only what `f` reads, and the group's first change point is
/// found without a timeline; the module docs give the per-function rules.
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
    use crate::tuple;

    fn row(a: i64, v: i64, e: u64) -> Row {
        (
            tuple![a, v],
            if e == 0 { Time::INFINITY } else { Time::new(e) },
        )
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
}
