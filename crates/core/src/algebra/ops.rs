//! The kernels evaluation runs: the expiration-time algebra operators
//! of Section 2 applied at an explicit time `τ`, fed from the rows their
//! inputs hand on. Argument relations are implicitly replaced by
//! `expτ(R)` ("consider only tuples that have not yet expired at the time
//! the operator is applied"), and result tuples carry the expiration
//! times the paper's equations assign.
//!
//! `HashJoin` is ⋈, σ over × and a bare ×; `Aggregation` is `aggexp` and
//! a π directly above it, each group turned into rows by `GroupRows`,
//! which a Theorem 3 queue recomputes a group with too; and
//! `one_pass_difference` is −, and its critical tuples with it. `eval`
//! calls them, and so do [`join`] and [`aggregate`](fn@aggregate), over
//! built relations. The operators read literally, one function per
//! equation over built relations, are the `exptime-literal` crate: the
//! oracle these kernels are tested against.

use crate::aggregate::{self, AggFunc, AggMode, Group, Partitions, Row};
use crate::error::{Error, Result};
use crate::hash::RowMap;
use crate::interval::{Interval, IntervalSet};
use crate::patch::PatchQueue;
use crate::predicate::Predicate;
use crate::relation::{DuplicatePolicy, Relation};
use crate::schema::Schema;
use crate::time::Time;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Cow;

/// Join `R ⋈exp_p S` (Equation 5), rewritten as `σexp_{p}(R ×exp S)`; the
/// predicate addresses the concatenated attributes (left attributes at
/// `0..α(R)`, right at `α(R)..`).
///
/// Evaluation is one kernel ([`HashJoin`]): `s` is hashed on the
/// cross-side equality conjuncts between columns of one type and `r`
/// probes it row by row, in order, with the full predicate re-checked on
/// each candidate, so residual conjuncts are honoured. Without such a
/// conjunct the key is empty and the probe is the nested loop, which
/// `exptime-literal`'s `join_nested_loop` is: the kernel is
/// property-tested against it.
///
/// # Errors
///
/// Returns an error if `p` references attributes outside the product arity.
pub fn join(r: &Relation, s: &Relation, p: &Predicate, tau: Time) -> Result<Relation> {
    let mut join = HashJoin::new(r.schema(), s.schema(), p)?;
    for (t, e) in s.iter_at(tau) {
        join.build(t, e);
    }
    Ok(join.probe(r.iter_at(tau)))
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

/// The one join kernel, Equation 5 over rows handed in one at a time:
/// the right input is hashed by its equi-key ([`build`](Self::build)),
/// then the left input probes it in its own order
/// ([`probe`](Self::probe)). A bucket keeps its right rows in the order
/// they came, so rows come out in the product's order — left-major,
/// right-minor — and the result equals `select(product(r, s), p)` as a
/// sequence, not just as a set. The full predicate is re-checked on each
/// candidate pair, so residual conjuncts and repeated keys are honoured,
/// and each joined row takes the `min` of its two expiration times.
///
/// A pair of columns is a key only if both have one type: `p` compares
/// with `Value::total_cmp`, where `Int(2) = Float(2.0)`, while a hash key
/// compares with `Eq`, where they differ — an INT = FLOAT conjunct is
/// left to the re-check. With no key every right row shares the empty
/// key's bucket and the probe is the nested loop.
#[derive(Debug)]
pub(crate) struct HashJoin<'p> {
    p: &'p Predicate,
    schema: Schema,
    /// `(left attr, right attr)` pairs.
    keys: Vec<(usize, usize)>,
    table: RowMap<Tuple, Vec<(Tuple, Time)>>,
    /// A key's values, gathered to look a bucket up without building a
    /// tuple per row.
    scratch: Vec<Value>,
}

impl<'p> HashJoin<'p> {
    /// # Errors
    ///
    /// Returns an error if `p` references attributes outside the product
    /// arity.
    pub(crate) fn new(left: &Schema, right: &Schema, p: &'p Predicate) -> Result<Self> {
        p.validate(left.arity() + right.arity())?;
        let mut keys = equi_keys(p, left.arity());
        keys.retain(|&(i, j)| left.attr(i).ty == right.attr(j).ty);
        Ok(HashJoin {
            p,
            schema: left.product(right),
            keys,
            table: RowMap::default(),
            scratch: Vec::new(),
        })
    }

    /// Hashes one row of the right input's `expτ`.
    pub(crate) fn build(&mut self, t: &Tuple, e: Time) {
        let HashJoin {
            keys,
            table,
            scratch,
            ..
        } = self;
        scratch.clear();
        scratch.extend(keys.iter().map(|&(_, j)| t.attr(j).clone()));
        match table.get_mut(scratch.as_slice()) {
            Some(bucket) => bucket.push((t.clone(), e)),
            None => {
                table.insert(Tuple::new(scratch.as_slice()), vec![(t.clone(), e)]);
            }
        }
    }

    /// Probes with the left input's `expτ`, in order, and returns the
    /// join: pairs of rows of two sets, so each joined row is new.
    pub(crate) fn probe<'a>(self, left: impl IntoIterator<Item = (&'a Tuple, Time)>) -> Relation {
        let HashJoin {
            p,
            schema,
            keys,
            table,
            mut scratch,
        } = self;
        let mut out = Relation::new(schema);
        for (lt, le) in left {
            scratch.clear();
            scratch.extend(keys.iter().map(|&(i, _)| lt.attr(i).clone()));
            for (rt, re) in table.get(scratch.as_slice()).into_iter().flatten() {
                let joined = lt.concat(rt);
                if p.eval(&joined) {
                    out.push_distinct(joined, le.min(*re));
                }
            }
        }
        out
    }
}

/// A critical tuple of a difference (Table 2, case 3a): present and
/// unexpired in both arguments with `texp_R(t) > texp_S(t)`, so it must
/// *reappear* in the result when its `S`-copy expires. It is also one
/// pending patch of a Theorem 3 queue ([`PatchQueue`](crate::patch::PatchQueue)):
/// insert `tuple` into the materialised result at `appears_at`, carrying
/// `disappears_at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalTuple {
    /// The tuple itself.
    pub tuple: Tuple,
    /// When it reappears: `texp_S(t)`.
    pub appears_at: Time,
    /// When it disappears again: `texp_R(t)` (possibly `∞`).
    pub disappears_at: Time,
}

/// The one difference kernel: Equation 10 in one pass over `left`'s
/// `expτ`, in order, each row moved out of `left` — into the result,
/// keeping its `texp_R`, if `expτ(right)` lacks it, or among the critical
/// tuples if `right` holds it with an earlier `texp_S`. `right` is looked
/// up through its own tuple index, so its rows are hashed once at most:
/// a π or a ∪ that built it has hashed them already. One pass yields what
/// a materialised `R −exp S` derives everything from, both in left order
/// — the rows are Equation 10's as a sequence and the critical tuples
/// Table 2's (`exptime-literal`'s `difference` and `critical_tuples`).
/// The caller checks union compatibility.
pub(crate) fn one_pass_difference(
    left: Relation,
    right: &Relation,
    tau: Time,
) -> (Relation, Vec<CriticalTuple>) {
    let mut rel = Relation::new(left.schema().clone());
    let mut critical = Vec::new();
    for (tuple, re) in left.into_rows().into_iter().filter(|&(_, e)| e > tau) {
        match right.texp(&tuple).filter(|&se| se > tau) {
            None => rel.push_distinct(tuple, re),
            Some(se) if re > se => critical.push(CriticalTuple {
                tuple,
                appears_at: se,
                disappears_at: re,
            }),
            Some(_) => {}
        }
    }
    (rel, critical)
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
    /// result tuples expired at the first change and come back only with
    /// a recomputation of the group (at a patched root, the Theorem 3
    /// queue's), so only the contiguous `[τ, first change[` prefix counts.
    pub validity: IntervalSet,
}

/// How a group becomes rows of the result: `aggexp`'s Klug rows, or the
/// rows of a π directly above it. An evaluation borrows the positions; a
/// Theorem 3 queue owns them ([`into_owned`](Self::into_owned)) to
/// recompute a group with, so a group is turned into rows by this one
/// implementation whoever asks.
#[derive(Debug, Clone)]
pub(crate) struct GroupRows<'a> {
    f: AggFunc,
    mode: AggMode,
    positions: Option<Cow<'a, [usize]>>,
    /// Per output column, its grouping attribute's index in the key — or
    /// `None` for the aggregate column — when the projection emits one
    /// row per group.
    per_group: Option<Vec<Option<usize>>>,
    /// Whether the per-group rows keep every grouping attribute, so no two
    /// coincide.
    groups_distinct: bool,
}

/// What [`GroupRows::emit`] reads off a group besides its rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cut {
    /// The earlier of the value's first change (ν) and the mode's bound:
    /// from here the group's rows are wrong until it is dead. No row the
    /// group emitted outlives it, for no mode's bound passes ν.
    pub(crate) at: Time,
    /// `max texp`: when the partition is dead.
    pub(crate) death: Time,
}

impl GroupRows<'_> {
    /// The positions, owned: what a queue keeps.
    pub(crate) fn into_owned(self) -> GroupRows<'static> {
        GroupRows {
            positions: self.positions.map(|ps| Cow::Owned(ps.into_owned())),
            ..self
        }
    }

    /// One group's part of Equation 8: its value, ν, the mode's bound
    /// and its death read off `group`, and — into `rel`, if given — its
    /// rows: each Klug row `⟨r, value⟩` expiring at the bound or with `r`,
    /// whichever is first, straight into the π above if there is one
    /// (Equation 3's maximum over the rows that coincide under it); or,
    /// projected one row per group, the one row all of them coincide on,
    /// expiring at `min(bound, max texp of the group)`. The groups' rows
    /// are distinct when the projection keeps every grouping attribute;
    /// when it drops one, groups can coincide and `KeepMax` merges them.
    ///
    /// # Errors
    ///
    /// Returns non-numeric aggregation errors.
    pub(crate) fn emit(
        &self,
        group: &mut Group,
        rel: Option<&mut Relation>,
        scratch: &mut Vec<Value>,
    ) -> Result<Cut> {
        let f = self.f;
        let value = group.value(f)?;
        let nu = group.first_change(f)?;
        let bound = match self.mode {
            AggMode::Naive => group.earliest,
            AggMode::Contributing => aggregate::neutral::contributing_texp(&group.rows, f)?,
            AggMode::Exact => nu,
        };
        // Every mode's bound is sound (`contributing_bound_is_sound`): the
        // group's rows are gone by its cut.
        debug_assert!(bound <= nu, "a {:?} bound {bound} past ν {nu}", self.mode);
        let death = group.latest;
        match (rel, &self.per_group) {
            (Some(rel), Some(cols)) => {
                let row = cols.iter().map(|col| match col {
                    Some(j) => group.key.attr(*j).clone(),
                    None => value.clone(),
                });
                let row = Tuple::new(row.collect::<Vec<_>>());
                if self.groups_distinct {
                    rel.push_distinct(row, bound.min(death));
                } else {
                    rel.insert_with(row, bound.min(death), DuplicatePolicy::KeepMax)?;
                }
            }
            (Some(rel), None) => {
                for (t, e) in &group.rows {
                    let (row, e) = (t.append(value.clone()), bound.min(*e));
                    match &self.positions {
                        Some(ps) => {
                            rel.insert_projection(&row, ps, e, scratch)?;
                        }
                        None => rel.push_distinct(row, e),
                    }
                }
            }
            (None, _) => {}
        }
        Ok(Cut {
            at: nu.min(bound),
            death,
        })
    }

    /// The group `key` of `rows` as an evaluation at `τ` sees it: grouped
    /// from the survivors (`texp > τ`), in their order, and its rows
    /// emitted into `rel`. Returns the survivors and the cut when the
    /// group is still to go wrong before it is dead — when it is due
    /// again.
    ///
    /// # Panics
    ///
    /// Panics if the group, evaluated once already, now fails to: the
    /// survivors of a group hold none of the values that can fail it.
    pub(crate) fn regroup(
        &self,
        key: Tuple,
        mut rows: Vec<Row>,
        tau: Time,
        rel: &mut Relation,
        scratch: &mut Vec<Value>,
    ) -> Option<(Cut, Group)> {
        rows.retain(|&(_, e)| e > tau);
        if rows.is_empty() {
            return None;
        }
        let mut group = Group::of_rows(key, self.f, rows);
        let cut = self.emit(&mut group, Some(rel), scratch);
        let cut = cut.expect("a group that evaluated once evaluates again");
        (cut.at < cut.death).then_some((cut, group))
    }
}

/// One evaluation of `aggexp_{j1,…,jn,f}` at `τ`, or of the projection
/// `πexp(aggexp)` directly above it: rows go in one at a time — lent by a
/// scan or read from a built relation — and are grouped once, each group
/// keeping only what the function and the output read;
/// [`finish`](Self::finish) turns each group into rows ([`GroupRows`])
/// and derives the [`AggregateMeta`] and, at a patched root, the
/// Theorem 3 queue from them.
#[derive(Debug)]
pub(crate) struct Aggregation<'a> {
    input: &'a Schema,
    tau: Time,
    rows: GroupRows<'a>,
    /// At a patched root whose output keeps every grouping attribute: the
    /// queue's cap, and where each grouping attribute sits in an output
    /// row.
    patch: Option<(usize, Vec<usize>)>,
    partitions: Partitions<'a>,
}

/// What [`Aggregation::finish`] returns.
#[derive(Debug)]
pub(crate) struct Aggregated {
    /// `aggexp(R)`, or `πexp(aggexp(R))` if a projection was asked for.
    pub(crate) rel: Relation,
    pub(crate) meta: AggregateMeta,
    /// `|aggexp(R)|`: one Klug row per input row, built or not.
    pub(crate) klug_rows: usize,
    /// The Theorem 3 queue, at a patched root that can have one.
    pub(crate) patches: Option<PatchQueue>,
}

impl<'a> Aggregation<'a> {
    /// With `positions`, the result is `πexp_positions(aggexp(R))`. When
    /// every position is a grouping attribute or the aggregate column —
    /// SQL's `GROUP BY` output, Figure 3(a)'s
    /// `πexp_{2,3}(aggexp_{{2},count}(Pol))` — the Klug rows are not
    /// built, so a group keeps no row unless the contributing sets of
    /// [`AggMode::Contributing`] read them.
    ///
    /// `cap` is `Some` at a patched root: its groups then go in a Theorem
    /// 3 queue of at most that many, if the output keeps every grouping
    /// attribute — no two groups' rows can coincide then, so each group's
    /// rows are its own — and a group keeps its rows for the queue. Any
    /// other π merges groups, and has no queue.
    ///
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
        positions: Option<&'a [usize]>,
        cap: Option<usize>,
    ) -> Result<Self> {
        let arity = input.arity();
        if let Some(&index) = group_by.iter().find(|&&j| j >= arity) {
            return Err(Error::AttributeOutOfRange { index, arity });
        }
        f.validate(arity)?;
        let per_group =
            positions.filter(|ps| ps.iter().all(|&p| p == arity || group_by.contains(&p)));
        let groups_distinct = per_group.is_some_and(|ps| group_by.iter().all(|g| ps.contains(g)));
        let per_group = per_group.map(|ps| {
            let in_key = |p: usize| group_by.iter().position(|&g| g == p);
            ps.iter().map(|&p| in_key(p)).collect()
        });
        let key_cols = |cap| {
            let col = |g: &usize| match positions {
                Some(ps) => ps.iter().position(|p| p == g),
                None => Some(*g),
            };
            let cols: Option<Vec<_>> = group_by.iter().map(col).collect();
            cols.map(|cols| (cap, cols))
        };
        let patch = cap.and_then(key_cols);
        let keep_rows = per_group.is_none() || mode == AggMode::Contributing || patch.is_some();
        Ok(Aggregation {
            input,
            tau,
            rows: GroupRows {
                f,
                mode,
                positions: positions.map(Cow::Borrowed),
                per_group,
                groups_distinct,
            },
            patch,
            partitions: Partitions::new(group_by, f, keep_rows),
        })
    }

    /// Adds one row of `expτ(R)`, and answers whether it was kept (copied).
    pub(crate) fn push(&mut self, t: &Tuple, e: Time) -> bool {
        self.partitions.push(t, e)
    }

    /// Equation 8, Klug-style: every input tuple extended with the
    /// aggregate value `a` of its partition, expiring at the partition's
    /// bound under `mode` (Equation 8 naive, Table 1 contributing sets, or
    /// Equation 9 exact) or with its own base tuple, whichever is first —
    /// the mode supplies one partition-level bound (Equation 9 assigns
    /// "the same expiration time" to the partition), but a fresh
    /// evaluation after `texp_R(r)` would not contain `⟨r, a⟩` at all.
    /// Each group is turned into rows by [`GroupRows::emit`], so the
    /// unprojected relation is never built under a π.
    ///
    /// The metadata, per partition: the result goes wrong at the first
    /// change of the value (ν) or, under a conservative `mode`, already at
    /// the bound that removes the partition's result rows *before* the
    /// value changes (exactly why the paper's Figure 3(a) is invalid from
    /// time 10, the Eq. 8 bound) — whichever is first, the cut — provided
    /// a base row of the partition is still alive then: a partition that
    /// is dead is right again, its tuples having legitimately disappeared.
    ///
    /// At a patched root, the groups that go wrong before they are dead
    /// are sorted stably by their cut and split at the cap: those before
    /// it are the Theorem 3 queue, each due at its cut, and only those
    /// past it bound `texp(e)` and cut holes in `I(e)`.
    ///
    /// # Errors
    ///
    /// Returns non-numeric aggregation errors, then the projection's.
    pub(crate) fn finish(self) -> Result<Aggregated> {
        let Aggregation {
            input,
            tau,
            rows,
            patch,
            partitions,
        } = self;
        let input_ty = rows.f.attribute().map(|i| input.attr(i).ty);
        let schema = input.append(&rows.f.to_string(), rows.f.result_type(input_ty));
        // A π's out-of-range position is its error, raised after the
        // aggregate's own; until then no row is emitted.
        let projected = rows
            .positions
            .as_deref()
            .map(|ps| schema.project(ps))
            .transpose();
        let mut rel = Relation::new(match &projected {
            Ok(Some(projected)) => projected.clone(),
            _ => schema,
        });
        let mut holes = Vec::new();
        let mut queued = Vec::new();
        let mut klug_rows = 0;
        let mut scratch = Vec::new();
        for mut group in partitions.into_groups() {
            let out = projected.is_ok().then_some(&mut rel);
            let cut = rows.emit(&mut group, out, &mut scratch)?;
            klug_rows += group.n;
            // Wrong from the cut until the partition is dead — even where
            // the value returns, for the materialised tuples are gone and
            // cannot reappear (see `AggregateMeta::validity`) — unless the
            // queue recomputes it then.
            if cut.at < cut.death {
                match patch {
                    Some(_) => queued.push((cut, group)),
                    None => holes.push(Interval::new(cut.at, cut.death)),
                }
            }
        }
        projected?;
        let patches = patch.map(|(cap, key_cols)| {
            // Stable: groups due together keep first-appearance order.
            queued.sort_by_key(|(cut, _)| cut.at);
            let past = queued.split_off(cap.min(queued.len()));
            holes.extend(past.iter().map(|(cut, _)| Interval::new(cut.at, cut.death)));
            PatchQueue::of_groups(rows.into_owned(), key_cols, queued)
        });
        let texp = Time::min_of(holes.iter().map(|h| h.start)).unwrap_or(Time::INFINITY);
        let validity = IntervalSet::from_time(tau).subtract(&IntervalSet::from_intervals(holes));
        Ok(Aggregated {
            rel,
            meta: AggregateMeta { texp, validity },
            klug_rows,
            patches,
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
    let mut agg = Aggregation::new(r.schema(), group_by, f, mode, tau, None, None)?;
    for (t, e) in r.iter_at(tau) {
        agg.push(t, e);
    }
    let out = agg.finish()?;
    Ok((out.rel, out.meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;

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

    /// The rows of [`aggregate`].
    fn agg(r: &Relation, g: &[usize], f: AggFunc, mode: AggMode, tau: Time) -> Result<Relation> {
        aggregate(r, g, f, mode, tau).map(|(rel, _)| rel)
    }

    /// The metadata of [`aggregate`].
    fn agg_meta(r: &Relation, g: &[usize], f: AggFunc, mode: AggMode, tau: Time) -> AggregateMeta {
        aggregate(r, g, f, mode, tau).unwrap().1
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
}
