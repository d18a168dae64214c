//! Relation-level implementations of the expiration-time algebra operators.
//!
//! Each function implements one operator of Section 2 of the paper, applied
//! at an explicit time `τ`: argument relations are implicitly replaced by
//! `expτ(R)` ("consider only tuples that have not yet expired at the time
//! the operator is applied"), result tuples carry the expiration times the
//! paper's equations assign, and the expression-level metadata (the
//! expiration time `texp(e)` of a whole materialised expression, and its
//! Schrödinger validity intervals) is provided by companion `*_meta`
//! functions for the non-monotonic operators.

use crate::aggregate::{self, AggFunc, AggMode, Partitions};
use crate::error::{Error, Result};
use crate::interval::{Interval, IntervalSet};
use crate::predicate::Predicate;
use crate::relation::{DuplicatePolicy, Relation};
use crate::schema::Schema;
use crate::time::Time;
use crate::tuple::Tuple;
use crate::value::Value;

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
/// Propagates schema errors (none arise in practice; the product schema is
/// always valid).
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
/// Returns [`Error::NotUnionCompatible`] on schema mismatch.
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

/// Join `R ⋈exp_p S` (Equation 5), rewritten as `σexp_{p}(R ×exp S)`; the
/// predicate addresses the concatenated attributes (left attributes at
/// `0..α(R)`, right at `α(R)..`).
///
/// Evaluation picks a physical strategy by predicate shape: cross-side
/// equality conjuncts between columns of one type drive a
/// build-smaller/probe-larger hash join (the full predicate is re-checked
/// on candidates, so residual conjuncts are honoured); anything else falls
/// back to the literal nested loop ([`join_nested_loop`]). Both are
/// property-tested equivalent.
///
/// # Errors
///
/// Returns an error if `p` references attributes outside the product arity.
pub fn join(r: &Relation, s: &Relation, p: &Predicate, tau: Time) -> Result<Relation> {
    p.validate(r.arity() + s.arity())?;
    // Fast path: cross-side equality conjuncts drive a hash join; any
    // residual predicate filters the matches. Falls back to the literal
    // Equation 5 nested loop when no equi-key exists. A pair is a hash key
    // only if both columns have one type: `p` compares with
    // `Value::total_cmp`, where `Int(2) = Float(2.0)`, while a hash key
    // compares with `Eq`, where they differ — an INT = FLOAT conjunct is
    // left to the re-check.
    let mut keys = equi_keys(p, r.arity());
    keys.retain(|&(i, j)| r.schema().attr(i).ty == s.schema().attr(j).ty);
    if keys.is_empty() {
        join_nested_loop(r, s, p, tau)
    } else {
        join_hash(r, s, p, &keys, tau)
    }
}

/// The literal Equation 5 evaluation: filtered nested loop over the
/// product. Kept public as the reference implementation (property-tested
/// against the hash path) and as the ablation baseline.
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

/// Extracts cross-side equality pairs `(left attr, right attr)` from the
/// top-level conjunction of `p`; right attributes are shifted down by
/// `left_arity`. Every result tuple must satisfy each top-level conjunct,
/// so probing only key-equal pairs is complete; `Or`/`Not` terms simply
/// contribute no keys and are handled by the residual re-check.
fn equi_keys(p: &Predicate, left_arity: usize) -> Vec<(usize, usize)> {
    fn conjuncts<'a>(p: &'a Predicate, out: &mut Vec<&'a Predicate>) {
        match p {
            Predicate::And(a, b) => {
                conjuncts(a, out);
                conjuncts(b, out);
            }
            other => out.push(other),
        }
    }
    let mut terms = Vec::new();
    conjuncts(p, &mut terms);
    let mut keys = Vec::new();
    for t in terms {
        if let Predicate::Cmp {
            left: crate::predicate::Operand::Attr(i),
            op: crate::predicate::CmpOp::Eq,
            right: crate::predicate::Operand::Attr(j),
        } = t
        {
            let (a, b) = (*i.min(j), *i.max(j));
            if a < left_arity && b >= left_arity {
                keys.push((a, b - left_arity));
            }
        }
    }
    keys
}

/// Hash join on the extracted equi-keys; the full predicate `p` is
/// re-checked on each candidate pair, so residual conjuncts (and repeated
/// keys) are honoured. Whichever side is hashed, rows come out in the
/// product's order — left-major, right-minor — so the result equals
/// `select(product(r, s), p)` as a sequence, not just as a set.
fn join_hash(
    r: &Relation,
    s: &Relation,
    p: &Predicate,
    keys: &[(usize, usize)],
    tau: Time,
) -> Result<Relation> {
    use std::collections::HashMap;
    fn key<'t>(t: &'t Tuple, attrs: &[usize]) -> Vec<&'t Value> {
        attrs.iter().map(|&a| t.attr(a)).collect()
    }
    let (left_attrs, right_attrs): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
    let mut out = Relation::new(r.schema().product(s.schema()));
    // Build on the smaller side.
    if s.count_unexpired(tau) <= r.count_unexpired(tau) {
        let mut table: HashMap<Vec<&Value>, Vec<(&Tuple, Time)>> = HashMap::new();
        for (st, se) in s.iter_at(tau) {
            table
                .entry(key(st, &right_attrs))
                .or_default()
                .push((st, se));
        }
        for (rt, re) in r.iter_at(tau) {
            for &(st, se) in table.get(&key(rt, &left_attrs)).into_iter().flatten() {
                let joined = rt.concat(st);
                if p.eval(&joined) {
                    out.insert(joined, re.min(se))?;
                }
            }
        }
    } else {
        // Probing with the right side finds matches right-major: collect
        // them per left row, then emit the left rows in order.
        let left: Vec<(&Tuple, Time)> = r.iter_at(tau).collect();
        let mut table: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
        for (i, (rt, _)) in left.iter().enumerate() {
            table.entry(key(rt, &left_attrs)).or_default().push(i);
        }
        let mut matches: Vec<Vec<(Tuple, Time)>> = vec![Vec::new(); left.len()];
        for (st, se) in s.iter_at(tau) {
            for &i in table.get(&key(st, &right_attrs)).into_iter().flatten() {
                let (rt, re) = left[i];
                let joined = rt.concat(st);
                if p.eval(&joined) {
                    matches[i].push((joined, re.min(se)));
                }
            }
        }
        for (joined, e) in matches.into_iter().flatten() {
            out.insert(joined, e)?;
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
/// Returns [`Error::NotUnionCompatible`] on schema mismatch.
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
/// Returns [`Error::NotUnionCompatible`] on schema mismatch.
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

/// A critical tuple of a difference (Table 2, case 3a): present and
/// unexpired in both arguments with `texp_R(t) > texp_S(t)`, so it must
/// *reappear* in the result when its `S`-copy expires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalTuple {
    /// The tuple itself.
    pub tuple: Tuple,
    /// When it reappears: `texp_S(t)`.
    pub appears_at: Time,
    /// When it disappears again: `texp_R(t)` (possibly `∞`).
    pub disappears_at: Time,
}

/// The critical tuples `{t | t ∈ R ∧ t ∈ S ∧ texp_R(t) > texp_S(t)}` of a
/// difference, evaluated over the unexpired portions at `τ`.
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

/// Expression-level metadata for a materialised aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateMeta {
    /// `texp(aggexp(R))` contribution from the contents: the earliest time
    /// any partition's aggregate value changes *while the partition is
    /// still alive* (Section 2.6.1's two-case analysis — a change caused by
    /// the whole partition expiring does not invalidate the expression,
    /// because its tuples legitimately disappear).
    pub texp: Time,
    /// The Schrödinger validity relative to query time `τ`: the
    /// intersection over partitions of `[τ, cut[ ∪ [death, ∞[`, where the
    /// cut is the earlier of the first value change and the mode-induced
    /// row loss (see [`aggregate`]).
    ///
    /// Section 3.4.1 writes `I(e) = ⋂_t I_R(t)` over member tuples, with
    /// `I_R(t)` the intervals where the aggregate value equals its value
    /// at `τ`. Two adjustments keep that sound for a *materialised*
    /// result: (a) taken literally `I(e)` becomes empty once any
    /// partition dies, although the paper itself states the expression
    /// "remains correct and needs not expire" then — so instants after a
    /// partition's death are OK; (b) intervals where the value *returns*
    /// to its original after changing are NOT ok — the materialised
    /// result tuples expired at the first change and cannot come back
    /// (unlike the difference operator, where Theorem 3's queue re-adds
    /// tuples), so only the contiguous `[τ, first change[` prefix counts.
    pub validity: IntervalSet,
}

/// One evaluation of `aggexp_{j1,…,jn,f}` at `τ`: rows go in one at a
/// time — lent by a scan or read from a built relation — and are grouped
/// once; [`finish`](Self::finish) reads the value, the mode's bound, ν and
/// the partition's death off each group and derives the output rows and
/// the [`AggregateMeta`] from them.
#[derive(Debug)]
pub(crate) struct Aggregation<'a> {
    input: &'a Schema,
    group_by: &'a [usize],
    f: AggFunc,
    mode: AggMode,
    tau: Time,
    partitions: Partitions,
}

/// What [`Aggregation::finish`] returns.
#[derive(Debug)]
pub(crate) struct Aggregated {
    /// `aggexp(R)`, or `πexp(aggexp(R))` if a projection was asked for.
    pub(crate) rel: Relation,
    pub(crate) meta: AggregateMeta,
    /// `|aggexp(R)|`: one Klug row per input row, built or not.
    pub(crate) klug_rows: usize,
}

impl<'a> Aggregation<'a> {
    /// # Errors
    ///
    /// Returns [`Error::AttributeOutOfRange`] on a grouping or aggregated
    /// position outside `input`.
    pub(crate) fn new(
        input: &'a Schema,
        group_by: &'a [usize],
        f: AggFunc,
        mode: AggMode,
        tau: Time,
    ) -> Result<Self> {
        let arity = input.arity();
        if let Some(&index) = group_by.iter().find(|&&j| j >= arity) {
            return Err(Error::AttributeOutOfRange { index, arity });
        }
        f.validate(arity)?;
        Ok(Aggregation {
            input,
            group_by,
            f,
            mode,
            tau,
            partitions: Partitions::default(),
        })
    }

    /// Adds one row of `expτ(R)`.
    pub(crate) fn push(&mut self, t: &Tuple, e: Time) {
        self.partitions.push(self.group_by, t, e);
    }

    /// Equation 8, Klug-style: every input tuple extended with the
    /// aggregate value `a` of its partition, expiring at the partition's
    /// bound under `mode` (Equation 8 naive, Table 1 contributing sets, or
    /// Equation 9 exact) or with its own base tuple, whichever is first —
    /// the mode supplies one partition-level bound (Equation 9 assigns
    /// "the same expiration time" to the partition), but a fresh
    /// evaluation after `texp_R(r)` would not contain `⟨r, a⟩` at all.
    ///
    /// With `positions`, the result is `πexp_positions` of that. When every
    /// position is a grouping attribute or the aggregate column — SQL's
    /// `GROUP BY` output, Figure 3(a)'s `πexp_{2,3}(aggexp_{{2},count}(Pol))`
    /// — the Klug rows are not built: all rows of a group coincide under
    /// the projection, and Equation 3's maximum over them is
    /// `min(bound, max texp of the group)`, so one row per group is
    /// emitted (`KeepMax` merging groups that coincide because the
    /// projection dropped a grouping attribute).
    ///
    /// The metadata, per partition: the result goes wrong at the first
    /// change of the value (ν) or, under a conservative `mode`, already at
    /// the bound that removes the partition's result rows *before* the
    /// value changes (exactly why the paper's Figure 3(a) is invalid from
    /// time 10, the Eq. 8 bound) — whichever is first, the cut — provided
    /// a base row of the partition is still alive then: a partition that
    /// is dead is right again, its tuples having legitimately disappeared.
    ///
    /// # Errors
    ///
    /// Returns non-numeric aggregation errors, then the projection's.
    pub(crate) fn finish(self, positions: Option<&[usize]>) -> Result<Aggregated> {
        let Aggregation {
            input,
            group_by,
            f,
            mode,
            tau,
            partitions,
        } = self;
        let arity = input.arity();
        let input_ty = f.attribute().map(|i| input.attr(i).ty);
        let schema = input.append(&f.to_string(), f.result_type(input_ty));
        let per_group =
            positions.filter(|ps| ps.iter().all(|&p| p == arity || group_by.contains(&p)));
        let mut rel = Relation::new(match per_group {
            Some(ps) => schema.project(ps)?,
            None => schema,
        });
        let mut texp = Time::INFINITY;
        let mut holes = Vec::new();
        let mut klug_rows = 0;
        for (_, rows) in partitions.into_groups() {
            let value = f.apply(&rows)?.expect("partitions are non-empty");
            let nu = aggregate::nu::first_change(tau, &rows, f)?;
            let bound = match mode {
                AggMode::Exact => nu,
                _ => aggregate::result_texp(&rows, f, mode, tau)?,
            };
            let death = aggregate::nu::partition_death(&rows).expect("partitions are non-empty");
            // Wrong from the cut until the partition is dead — even where
            // the value returns, for the materialised tuples are gone and
            // cannot reappear (see `AggregateMeta::validity`).
            let cut = nu.min(bound);
            if cut < death {
                texp = texp.min(cut);
                holes.push(Interval::new(cut, death));
            }

            klug_rows += rows.len();
            match per_group {
                Some(ps) => {
                    let first = &rows[0].0;
                    let row = ps.iter().map(|&p| match first.get(p) {
                        Some(v) => v.clone(),
                        None => value.clone(),
                    });
                    rel.insert_with(
                        Tuple::new(row.collect::<Vec<_>>()),
                        bound.min(death),
                        DuplicatePolicy::KeepMax,
                    )?;
                }
                None => {
                    for (t, e) in &rows {
                        rel.insert(t.append(value.clone()), bound.min(*e))?;
                    }
                }
            }
        }
        if let (Some(ps), None) = (positions, per_group) {
            rel = project(&rel, ps, tau)?;
        }
        let validity = IntervalSet::from_time(tau).subtract(&IntervalSet::from_intervals(holes));
        Ok(Aggregated {
            rel,
            meta: AggregateMeta { texp, validity },
            klug_rows,
        })
    }
}

/// Aggregation `aggexp_{j1,…,jn,f}(R)` (Equation 8, Klug-style) over a
/// built relation: every unexpired input tuple extended with the aggregate
/// value of its partition and expiring at the partition's bound under
/// `mode` or with its own base tuple, whichever is first; and the
/// expression-level metadata that goes with those rows.
///
/// # Errors
///
/// Returns errors on bad grouping positions or non-numeric aggregation.
pub fn aggregate(
    r: &Relation,
    group_by: &[usize],
    f: AggFunc,
    mode: AggMode,
    tau: Time,
) -> Result<(Relation, AggregateMeta)> {
    let mut agg = Aggregation::new(r.schema(), group_by, f, mode, tau)?;
    for (t, e) in r.iter_at(tau) {
        agg.push(t, e);
    }
    let out = agg.finish(None)?;
    Ok((out.rel, out.meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::{Value, ValueType};

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    /// Figure 1(a): the politics table.
    pub(crate) fn pol() -> Relation {
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

    /// The rows of [`aggregate`].
    fn agg(r: &Relation, g: &[usize], f: AggFunc, mode: AggMode, tau: Time) -> Result<Relation> {
        aggregate(r, g, f, mode, tau).map(|(rel, _)| rel)
    }

    /// The metadata of [`aggregate`].
    fn agg_meta(r: &Relation, g: &[usize], f: AggFunc, mode: AggMode, tau: Time) -> AggregateMeta {
        aggregate(r, g, f, mode, tau).unwrap().1
    }

    /// Figure 1(b): the elections table.
    pub(crate) fn el() -> Relation {
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
    fn join_matches_figure_2e_to_2g() {
        // Pol ⋈exp_{1=3} El: uid = uid.
        let p = Predicate::attr_eq_attr(0, 2);
        let r0 = join(&pol(), &el(), &p, Time::ZERO).unwrap();
        assert_eq!(r0.len(), 2);
        assert_eq!(r0.texp(&tuple![1, 25, 1, 75]), Some(t(5)));
        assert_eq!(r0.texp(&tuple![2, 25, 2, 85]), Some(t(3)));

        let r3 = join(&pol(), &el(), &p, t(3)).unwrap();
        assert_eq!(r3.len(), 1);
        assert_eq!(r3.texp(&tuple![1, 25, 1, 75]), Some(t(5)));

        let r5 = join(&pol(), &el(), &p, t(5)).unwrap();
        assert!(r5.is_empty(), "Figure 2(g): the query is empty at time 5");
    }

    #[test]
    fn hash_join_equals_nested_loop_on_equi_and_mixed_predicates() {
        let preds = vec![
            Predicate::attr_eq_attr(0, 2),
            Predicate::attr_eq_attr(0, 2).and(Predicate::attr_cmp_const(
                1,
                crate::predicate::CmpOp::Ge,
                25,
            )),
            Predicate::attr_eq_attr(0, 2).and(Predicate::attr_eq_attr(1, 3)),
            // No extractable key: nested loop on both sides of the check.
            Predicate::attr_eq_attr(0, 2).or(Predicate::attr_eq_const(1, 35)),
            Predicate::attr_cmp_const(1, crate::predicate::CmpOp::Lt, 90),
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

    /// Whichever side the hash join builds on, `join` is
    /// `select(product(..))` as a *sequence*: left-major, right-minor. With
    /// the smaller input on the left it is the left side that is hashed
    /// and the right that probes.
    #[test]
    fn join_emits_the_products_order_whichever_side_is_hashed() {
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
        let residual = on.clone().and(Predicate::attr_cmp_const(
            3,
            crate::predicate::CmpOp::Gt,
            10,
        ));
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
        for (l, r, p) in [(&a, &b, &on), (&b, &a, &on), (&a, &b, &residual)] {
            let want = select(&product(l, r, Time::ZERO).unwrap(), p, Time::ZERO).unwrap();
            assert_eq!(rows(&join(l, r, p, Time::ZERO).unwrap()), rows(&want));
            assert_eq!(
                rows(&join_nested_loop(l, r, p, Time::ZERO).unwrap()),
                rows(&want)
            );
        }
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
    fn equi_keys_extraction() {
        let k = equi_keys(&Predicate::attr_eq_attr(0, 2), 2);
        assert_eq!(k, vec![(0, 0)]);
        // Reversed operand order still extracts.
        let k = equi_keys(&Predicate::attr_eq_attr(3, 1), 2);
        assert_eq!(k, vec![(1, 1)]);
        // Same-side equality contributes nothing.
        assert!(equi_keys(&Predicate::attr_eq_attr(0, 1), 2).is_empty());
        // Or at top level contributes nothing.
        assert!(equi_keys(&Predicate::attr_eq_attr(0, 2).or(Predicate::True), 2).is_empty());
        // Conjunction collects multiple keys and skips residuals.
        let k = equi_keys(
            &Predicate::attr_eq_attr(0, 2)
                .and(Predicate::attr_eq_attr(1, 3))
                .and(Predicate::attr_cmp_const(0, crate::predicate::CmpOp::Lt, 9)),
            2,
        );
        assert_eq!(k, vec![(0, 0), (1, 1)]);
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
    fn aggregate_keeps_input_tuples_and_appends_value() {
        // aggexp_{{2},count}(Pol) at time 0 (paper Section 2.7 / Fig 3a
        // before the projection).
        let a = agg(&pol(), &[1], AggFunc::Count, AggMode::Naive, Time::ZERO).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.arity(), 3);
        assert!(a.contains(&tuple![1, 25, 2]));
        assert!(a.contains(&tuple![2, 25, 2]));
        assert!(a.contains(&tuple![3, 35, 1]));
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
    fn aggregate_exact_mode_same_texp_per_partition() {
        let a = agg(&pol(), &[1], AggFunc::Count, AggMode::Exact, Time::ZERO).unwrap();
        // Count of deg-25 partition changes at 10 (2 → 1): same as naive
        // here, but by the ν machinery.
        assert_eq!(a.texp(&tuple![1, 25, 2]), Some(t(10)));
        assert_eq!(a.texp(&tuple![2, 25, 2]), Some(t(10)));
    }

    #[test]
    fn aggregate_exact_outlives_naive_for_min() {
        // Partition: min 10 pinned until 20; short-lived larger value at 5.
        let mut r = Relation::new(Schema::of(&[("g", ValueType::Int), ("v", ValueType::Int)]));
        r.insert(tuple![1, 10], t(20)).unwrap();
        r.insert(tuple![1, 30], t(5)).unwrap();
        let naive = agg(&r, &[0], AggFunc::Min(1), AggMode::Naive, Time::ZERO).unwrap();
        let exact = agg(&r, &[0], AggFunc::Min(1), AggMode::Exact, Time::ZERO).unwrap();
        assert_eq!(naive.texp(&tuple![1, 10, 10]), Some(t(5)));
        assert_eq!(exact.texp(&tuple![1, 10, 10]), Some(t(20)));
    }

    #[test]
    fn aggregate_meta_partition_death_does_not_invalidate() {
        // Single-tuple partitions: every change is a death → expression
        // never invalidates.
        let mut r = Relation::new(Schema::of(&[("g", ValueType::Int)]));
        r.insert(tuple![1], t(4)).unwrap();
        r.insert(tuple![2], t(7)).unwrap();
        let meta = agg_meta(&r, &[0], AggFunc::Count, AggMode::Exact, Time::ZERO);
        assert_eq!(meta.texp, Time::INFINITY);
        assert!(meta.validity.contains(t(100)));
    }

    #[test]
    fn aggregate_meta_live_change_invalidates() {
        // Figure 3(a): deg-25 partition's count changes at 10 while ⟨2,25⟩
        // is still alive → expression invalid from 10.
        let meta = agg_meta(&pol(), &[1], AggFunc::Count, AggMode::Exact, Time::ZERO);
        assert_eq!(meta.texp, t(10));
        assert!(meta.validity.contains(t(9)));
        assert!(!meta.validity.contains(t(10)));
        // After 15 everything is dead → valid again (Schrödinger).
        assert!(meta.validity.contains(t(15)));
    }

    #[test]
    fn aggregate_result_rows_never_outlive_their_base() {
        // min = 0 pinned by a long-lived row: the partition bound (ν) is
        // the partition death at 20, but the short-lived row's result
        // must still die with its base at 5.
        let mut r = Relation::new(Schema::of(&[("g", ValueType::Int), ("v", ValueType::Int)]));
        r.insert(tuple![1, 0], t(20)).unwrap();
        r.insert(tuple![1, 3], t(5)).unwrap();
        for mode in [AggMode::Naive, AggMode::Contributing, AggMode::Exact] {
            let out = agg(&r, &[0], AggFunc::Min(1), mode, Time::ZERO).unwrap();
            let short = out.texp(&tuple![1, 3, 0]).unwrap();
            assert!(short <= t(5), "{mode:?}: result row outlives base: {short}");
        }
        // Exact mode: the long-lived row keeps the full ν lifetime.
        let out = agg(&r, &[0], AggFunc::Min(1), AggMode::Exact, Time::ZERO).unwrap();
        assert_eq!(out.texp(&tuple![1, 0, 0]), Some(t(20)));
        assert_eq!(out.texp(&tuple![1, 3, 0]), Some(t(5)));
        // Sweep: materialised (unprojected!) aggregate equals fresh
        // evaluation at every instant while texp(e) = ∞ (no live change).
        let meta = agg_meta(&r, &[0], AggFunc::Min(1), AggMode::Exact, Time::ZERO);
        assert_eq!(meta.texp, Time::INFINITY);
        for now in 0..25 {
            let fresh = agg(&r, &[0], AggFunc::Min(1), AggMode::Exact, t(now)).unwrap();
            assert!(
                out.set_eq_at(&fresh, t(now)),
                "at {now}: {:?} vs {:?}",
                out.exp(t(now)),
                fresh
            );
        }
    }

    #[test]
    fn aggregate_meta_excludes_value_return_intervals() {
        // sum: 8 on [0,3[, 3 on [3,7[, 8 again on [7,9[, dead after 9.
        // The materialised rows expired at 3 and cannot come back, so the
        // return interval [7,9[ must NOT be claimed valid.
        let mut r = Relation::new(Schema::of(&[("g", ValueType::Int), ("v", ValueType::Int)]));
        r.insert(tuple![1, 5], t(3)).unwrap();
        r.insert(tuple![1, -5], t(7)).unwrap();
        r.insert(tuple![1, 8], t(9)).unwrap();
        let meta = agg_meta(&r, &[0], AggFunc::Sum(1), AggMode::Exact, Time::ZERO);
        assert!(meta.validity.contains(t(2)));
        assert!(!meta.validity.contains(t(4)));
        assert!(
            !meta.validity.contains(t(7)),
            "value returned but rows are gone"
        );
        assert!(!meta.validity.contains(t(8)));
        assert!(
            meta.validity.contains(t(9)),
            "partition dead: both sides empty"
        );
        // And the claim is verified against reality.
        let out = agg(&r, &[0], AggFunc::Sum(1), AggMode::Exact, Time::ZERO).unwrap();
        for now in 0..12 {
            let fresh = agg(&r, &[0], AggFunc::Sum(1), AggMode::Exact, t(now)).unwrap();
            let agree = out.tuples_eq_at(&fresh, t(now));
            assert_eq!(
                meta.validity.contains(t(now)),
                agree,
                "validity claim wrong at {now}"
            );
        }
    }

    #[test]
    fn aggregate_sum_values() {
        let a = agg(&pol(), &[1], AggFunc::Sum(0), AggMode::Naive, Time::ZERO).unwrap();
        // deg=25 partition: uids 1+2 = 3; deg=35: uid 3.
        assert!(a.contains(&tuple![1, 25, 3]));
        assert!(a.contains(&tuple![3, 35, 3]));
    }

    #[test]
    fn aggregate_validates_positions() {
        assert!(matches!(
            agg(&pol(), &[9], AggFunc::Count, AggMode::Naive, Time::ZERO),
            Err(Error::AttributeOutOfRange { .. })
        ));
        assert!(agg(&pol(), &[0], AggFunc::Sum(9), AggMode::Naive, Time::ZERO).is_err());
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
        let meta = agg_meta(&empty, &[0], AggFunc::Count, AggMode::Exact, Time::ZERO);
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
