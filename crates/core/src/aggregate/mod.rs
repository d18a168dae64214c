//! Aggregation with expiration times (paper Section 2.6.1).
//!
//! The paper's aggregation operator is Klug-style (Equation 8): every input
//! tuple `r` is extended with the aggregate value `a = f(φexp(R, r))` of its
//! partition, so the result has arity `α(R) + 1`. SQL `GROUP BY` output is
//! obtained by projecting onto the grouping attributes plus the aggregate
//! attribute — exactly as the paper's Figure 3(a) writes
//! `πexp_{2,3}(aggexp_{{2},count}(Pol))`.
//!
//! This module defines the standard SQL aggregate functions, the stable
//! partitioning function `φexp` (Equation 7, SQL `GROUP BY` semantics), and
//! the three expiration-time assignment modes:
//!
//! * [`AggMode::Naive`] — Equation 8: the minimum expiration time of the
//!   partition (conservative);
//! * [`AggMode::Contributing`] — Table 1 / Definition 2: ignore time-sliced
//!   *neutral* subsets, yielding the first instant a *non-neutral* slice
//!   expires (see [`neutral`]);
//! * [`AggMode::Exact`] — Equation 9: the tuple expires exactly when its
//!   aggregate value first changes ([`nu::first_change`]).
//!
//! An evaluation groups its input exactly once: `Partitions` is `φexp`
//! fed one lent row at a time, and each group keeps only what its
//! aggregate reads — its size and earliest and latest `texp`, the
//! aggregated column if the function has one (exact `i64`s while every
//! value is an INT), and the rows themselves only when Klug rows are
//! emitted or contributing sets are read. Value, bound, ν and death are
//! all read off that. [`AggFunc::apply`] is the definition of every
//! function's value: whatever a group or ν computes must equal, bit for
//! bit, `apply` over the survivors.

pub mod approx;
pub mod neutral;
pub mod nu;

use crate::error::{Error, Result};
use crate::hash::RowMap;
use crate::relation::Relation;
use crate::time::Time;
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};
use std::fmt;
use std::ops::Range;

/// A row of a partition: the tuple and its expiration time.
pub type Row = (Tuple, Time);

/// The family `F` of standard SQL aggregate functions. The subscript in the
/// paper (`min₁`, `sum₂`, …) is the zero-based attribute position here;
/// `count` takes no attribute (the paper's `count₃` counts tuples, so the
/// subscript is irrelevant in a model without nulls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Minimum of attribute `i`.
    Min(usize),
    /// Maximum of attribute `i`.
    Max(usize),
    /// Sum of attribute `i` (numeric).
    Sum(usize),
    /// Average of attribute `i` (numeric).
    Avg(usize),
    /// Number of tuples in the partition.
    Count,
}

impl AggFunc {
    /// The function's name, as in the paper's Table 1.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Min(_) => "min",
            AggFunc::Max(_) => "max",
            AggFunc::Sum(_) => "sum",
            AggFunc::Avg(_) => "avg",
            AggFunc::Count => "count",
        }
    }

    /// The aggregated attribute position, if the function has one.
    #[must_use]
    pub fn attribute(&self) -> Option<usize> {
        match self {
            AggFunc::Min(i) | AggFunc::Max(i) | AggFunc::Sum(i) | AggFunc::Avg(i) => Some(*i),
            AggFunc::Count => None,
        }
    }

    /// The result type given the input attribute type.
    #[must_use]
    pub fn result_type(&self, input: Option<ValueType>) -> ValueType {
        match self {
            AggFunc::Count => ValueType::Int,
            AggFunc::Avg(_) => ValueType::Float,
            AggFunc::Sum(_) => match input {
                Some(ValueType::Int) => ValueType::Int,
                _ => ValueType::Float,
            },
            AggFunc::Min(_) | AggFunc::Max(_) => input.unwrap_or(ValueType::Int),
        }
    }

    /// Validates the function against an input arity and (numeric) types.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AttributeOutOfRange`] on a bad attribute position.
    pub fn validate(&self, arity: usize) -> Result<()> {
        if let Some(i) = self.attribute() {
            if i >= arity {
                return Err(Error::AttributeOutOfRange { index: i, arity });
            }
        }
        Ok(())
    }

    /// Applies the function to a partition. Returns `None` for an empty
    /// partition (the paper's `f(∅)` is undefined; expiring partitions make
    /// their result tuples disappear rather than take a value).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonNumericAggregate`] if `sum`/`avg` meet a value
    /// with no numeric view.
    pub fn apply(&self, partition: &[Row]) -> Result<Option<Value>> {
        match self.attribute() {
            Some(i) => self.fold(partition.iter().map(|(t, _)| t.attr(i))),
            None => Ok((!partition.is_empty()).then_some(Value::Int(partition.len() as i64))),
        }
    }

    /// [`apply`](Self::apply) over the aggregated attribute's values,
    /// folded in the order given (`count` counts them). `min` keeps the
    /// first of several equal minima and `max` the last of several equal
    /// maxima. `sum` and `avg` over INT values are integer arithmetic (the
    /// `i128` total, `sum` saturating at the `i64` bounds); once any value
    /// is a FLOAT they are the left-to-right `f64` fold, whose result
    /// depends on that order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonNumericAggregate`] if `sum`/`avg` meet a value
    /// with no numeric view.
    pub(crate) fn fold<'a>(
        &self,
        values: impl IntoIterator<Item = &'a Value>,
    ) -> Result<Option<Value>> {
        let values = values.into_iter();
        let i = match *self {
            AggFunc::Count => {
                let n = values.count();
                return Ok((n > 0).then_some(Value::Int(n as i64)));
            }
            AggFunc::Min(_) => return Ok(values.min_by(|a, b| a.total_cmp(b)).cloned()),
            AggFunc::Max(_) => return Ok(values.max_by(|a, b| a.total_cmp(b)).cloned()),
            AggFunc::Sum(i) | AggFunc::Avg(i) => i,
        };
        let (mut n, mut ints, mut floats) = (0usize, Some(0i128), 0.0f64);
        for v in values {
            floats += v.as_numeric().ok_or(Error::NonNumericAggregate {
                function: self.name(),
                attribute: i,
            })?;
            ints = ints.zip(v.as_int()).map(|(s, x)| s + i128::from(x));
            n += 1;
        }
        Ok((n > 0).then(|| match (ints, self) {
            (Some(sum), _) => self.of_int_sum(sum, n),
            (None, AggFunc::Avg(_)) => Value::float(floats / n as f64),
            (None, _) => Value::float(floats),
        }))
    }

    /// The value `sum`/`avg` give `n > 0` INT values whose exact total is
    /// `sum` — what lets ν carry a running total from one time slice to
    /// the next instead of folding the survivors again.
    pub(crate) fn of_int_sum(&self, sum: i128, n: usize) -> Value {
        match self {
            AggFunc::Avg(_) => Value::float(sum as f64 / n as f64),
            _ => Value::Int(sum.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.attribute() {
            Some(i) => write!(f, "{}_{}", self.name(), i + 1),
            None => write!(f, "{}", self.name()),
        }
    }
}

/// How expiration times are assigned to aggregation result tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggMode {
    /// Equation 8: the minimum expiration time of the partition.
    Naive,
    /// Table 1 / Definition 2: the contributing-set bound, which ignores
    /// time-sliced neutral subsets.
    Contributing,
    /// Equation 9: exact — the tuple expires precisely when its aggregate
    /// value first changes (or its partition fully expires).
    #[default]
    Exact,
}

/// The stable partitioning function `φexp` of Equation 7, fed one row at
/// a time: groups rows by equality on the grouping attributes (SQL
/// `GROUP BY` semantics), in the order in which their keys first
/// appeared, so output is deterministic. A group keeps only what the
/// function reads ([`Group`]), and the rows themselves only if asked to.
///
/// When the grouping positions are one ascending run `a..b` — one column,
/// or none — a row's group is looked up by `&t.values()[a..b]` in place;
/// otherwise the key's values are gathered into a reused buffer. Either
/// way only a new group builds a key.
#[derive(Debug)]
pub(crate) struct Partitions<'a> {
    group_by: &'a [usize],
    run: Option<Range<usize>>,
    f: AggFunc,
    keep_rows: bool,
    groups: Vec<Group>,
    index: RowMap<Tuple, usize>,
    key: Vec<Value>,
}

impl<'a> Partitions<'a> {
    /// Groups by `group_by` for `f`; `keep_rows` keeps each group's rows.
    pub(crate) fn new(group_by: &'a [usize], f: AggFunc, keep_rows: bool) -> Self {
        let start = group_by.first().copied().unwrap_or(0);
        let ascending = group_by.iter().zip(start..).all(|(&j, k)| j == k);
        Partitions {
            group_by,
            run: ascending.then(|| start..start + group_by.len()),
            f,
            keep_rows,
            groups: Vec::new(),
            index: RowMap::default(),
            key: Vec::new(),
        }
    }

    /// Adds `t`, expiring at `e`, to the group of its `group_by` values,
    /// and answers whether the row was kept (copied).
    ///
    /// # Panics
    ///
    /// Panics if a grouping position is outside `t`'s arity.
    pub(crate) fn push(&mut self, t: &Tuple, e: Time) -> bool {
        let Partitions {
            group_by,
            run,
            f,
            keep_rows,
            groups,
            index,
            key,
        } = self;
        let key: &[Value] = match run {
            Some(run) => &t.values()[run.clone()],
            None => {
                key.clear();
                key.extend(group_by.iter().map(|&j| t.attr(j).clone()));
                key
            }
        };
        let group = match index.get(key) {
            Some(&i) => i,
            None => {
                let key = Tuple::new(key);
                index.insert(key.clone(), groups.len());
                groups.push(Group::new(key, *f));
                groups.len() - 1
            }
        };
        groups[group].push(*f, t, e, *keep_rows);
        *keep_rows
    }

    /// The groups, in first-appearance order.
    pub(crate) fn into_groups(self) -> Vec<Group> {
        self.groups
    }
}

/// One partition of `φexp`, as much of it as its aggregate reads: the
/// summary — `|P|`, the earliest and the latest `texp` — always; the
/// aggregated column only for a function that reads one; the rows only
/// when they were asked for (Klug rows, contributing sets). So `count`
/// holds no row at all: its value is `n`, its ν the earliest `texp`.
#[derive(Debug)]
pub(crate) struct Group {
    /// The grouping attributes' values.
    pub(crate) key: Tuple,
    /// `|P|`.
    pub(crate) n: usize,
    /// `min texp`: the Naive bound (Equation 8).
    pub(crate) earliest: Time,
    /// `max texp`: when the partition is dead.
    pub(crate) latest: Time,
    column: Column,
    /// The rows in the order they were pushed, if they are kept.
    pub(crate) rows: Vec<Row>,
}

/// The aggregated attribute of a group, each value with its `texp`.
#[derive(Debug)]
enum Column {
    /// `count` reads no attribute.
    Counted,
    /// `sum`/`avg` while every value seen is an INT, and their exact total.
    Ints(Vec<(Time, i64)>, i128),
    /// `min`/`max`, and `sum`/`avg` once a value is not an INT.
    Values(Vec<(Time, Value)>),
}

impl Group {
    fn new(key: Tuple, f: AggFunc) -> Self {
        Group {
            key,
            n: 0,
            earliest: Time::INFINITY,
            latest: Time::ZERO,
            column: match f {
                AggFunc::Count => Column::Counted,
                AggFunc::Sum(_) | AggFunc::Avg(_) => Column::Ints(Vec::new(), 0),
                AggFunc::Min(_) | AggFunc::Max(_) => Column::Values(Vec::new()),
            },
            rows: Vec::new(),
        }
    }

    /// The group `Partitions` builds of `rows` with its rows kept, pushed
    /// in their order, but taking `rows` as they are instead of copying
    /// each: how a Theorem 3 queue regroups the survivors of a group.
    pub(crate) fn of_rows(key: Tuple, f: AggFunc, rows: Vec<Row>) -> Self {
        let mut group = Group::new(key, f);
        for (t, e) in &rows {
            group.push(f, t, *e, false);
        }
        group.rows = rows;
        group
    }

    fn push(&mut self, f: AggFunc, t: &Tuple, e: Time, keep_row: bool) {
        self.n += 1;
        self.earliest = self.earliest.min(e);
        self.latest = self.latest.max(e);
        if let Some(i) = f.attribute() {
            let v = t.attr(i);
            match (&mut self.column, v.as_int()) {
                (Column::Ints(ints, sum), Some(x)) => {
                    ints.push((e, x));
                    *sum += i128::from(x);
                }
                (Column::Ints(ints, _), None) => {
                    let mut values: Vec<_> =
                        ints.iter().map(|&(e, x)| (e, Value::Int(x))).collect();
                    values.push((e, v.clone()));
                    self.column = Column::Values(values);
                }
                (Column::Values(values), _) => values.push((e, v.clone())),
                (Column::Counted, _) => unreachable!("count reads no attribute"),
            }
        }
        if keep_row {
            self.rows.push((t.clone(), e));
        }
    }

    /// `f` over the partition: equal, bit for bit, to
    /// [`AggFunc::apply`] over its rows in push order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonNumericAggregate`] if `sum`/`avg` met a value
    /// with no numeric view.
    pub(crate) fn value(&self, f: AggFunc) -> Result<Value> {
        Ok(match &self.column {
            Column::Counted => Value::Int(self.n as i64),
            Column::Ints(_, sum) => f.of_int_sum(*sum, self.n),
            Column::Values(values) => f
                .fold(values.iter().map(|(_, v)| v))?
                .expect("a group is never empty"),
        })
    }

    /// ν of the partition: the first instant its value differs from the
    /// one now ([`nu::first_change`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonNumericAggregate`] as [`value`](Self::value)
    /// does.
    pub(crate) fn first_change(&mut self, f: AggFunc) -> Result<Time> {
        match &mut self.column {
            Column::Counted => Ok(self.earliest),
            Column::Ints(ints, sum) => Ok(nu::first_change_of_ints(ints, *sum, self.earliest, f)),
            Column::Values(values) => nu::first_change_of_values(values, f),
        }
    }
}

/// `φexp` (Equation 7) over a whole relation at time `τ`: the unexpired
/// tuples, grouped by equality on the grouping attributes. Returns
/// `(group key, partition rows)` pairs in the order in which the keys
/// first appear in `R`, each partition in `R`'s order.
#[must_use]
pub fn partition(rel: &Relation, group_by: &[usize], tau: Time) -> Vec<(Tuple, Vec<Row>)> {
    let mut partitions = Partitions::new(group_by, AggFunc::Count, true);
    for (t, e) in rel.iter_at(tau) {
        partitions.push(t, e);
    }
    let groups = partitions.into_groups().into_iter();
    groups.map(|group| (group.key, group.rows)).collect()
}

/// The expiration time of one aggregation result tuple for a given
/// partition, function, and mode, evaluated at time `τ`.
///
/// # Errors
///
/// Propagates [`Error::NonNumericAggregate`] from applying `f`.
pub fn result_texp(partition: &[Row], f: AggFunc, mode: AggMode, tau: Time) -> Result<Time> {
    match mode {
        AggMode::Naive => Ok(Time::min_of(partition.iter().map(|(_, e)| *e))
            .expect("result_texp requires a non-empty partition")),
        AggMode::Contributing => neutral::contributing_texp(partition, f),
        AggMode::Exact => nu::first_change(tau, partition, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;

    fn rows(data: &[(i64, i64, u64)]) -> Vec<Row> {
        data.iter()
            .map(|&(a, b, e)| {
                (
                    tuple![a, b],
                    if e == 0 { Time::INFINITY } else { Time::new(e) },
                )
            })
            .collect()
    }

    #[test]
    fn count_min_max() {
        let p = rows(&[(1, 10, 5), (2, 30, 7), (3, 20, 9)]);
        assert_eq!(AggFunc::Count.apply(&p).unwrap(), Some(Value::Int(3)));
        assert_eq!(AggFunc::Min(1).apply(&p).unwrap(), Some(Value::Int(10)));
        assert_eq!(AggFunc::Max(1).apply(&p).unwrap(), Some(Value::Int(30)));
    }

    #[test]
    fn sum_stays_int_when_inputs_are_int() {
        let p = rows(&[(1, 10, 5), (2, -4, 7)]);
        assert_eq!(AggFunc::Sum(1).apply(&p).unwrap(), Some(Value::Int(6)));
    }

    /// 2^53 + 1 has no `f64`: a sum that went through one loses the 1.
    #[test]
    fn int_sum_is_exact_and_saturates() {
        const BIG: i64 = (1 << 53) + 1;
        let p = rows(&[(1, BIG, 5)]);
        assert_eq!(AggFunc::Sum(1).apply(&p).unwrap(), Some(Value::Int(BIG)));
        let p = rows(&[(1, BIG, 5), (2, 1, 7), (3, -3, 9)]);
        assert_eq!(
            AggFunc::Sum(1).apply(&p).unwrap(),
            Some(Value::Int(BIG - 2))
        );
        let p = rows(&[(1, i64::MAX, 5), (2, i64::MAX, 7), (3, -1, 9)]);
        assert_eq!(
            AggFunc::Sum(1).apply(&p).unwrap(),
            Some(Value::Int(i64::MAX)),
            "saturates; the exact total is kept until the end, so −1 does not bring it back"
        );
        let p = rows(&[(1, i64::MIN, 5), (2, -1, 7)]);
        assert_eq!(
            AggFunc::Sum(1).apply(&p).unwrap(),
            Some(Value::Int(i64::MIN))
        );
    }

    #[test]
    fn sum_and_avg_go_float_with_floats() {
        let p = vec![
            (tuple![1, 1.5], Time::new(5)),
            (tuple![2, 2.5], Time::new(7)),
        ];
        assert_eq!(AggFunc::Sum(1).apply(&p).unwrap(), Some(Value::float(4.0)));
        assert_eq!(AggFunc::Avg(1).apply(&p).unwrap(), Some(Value::float(2.0)));
    }

    #[test]
    fn avg_of_ints_is_float() {
        let p = rows(&[(1, 1, 5), (2, 2, 7)]);
        assert_eq!(AggFunc::Avg(1).apply(&p).unwrap(), Some(Value::float(1.5)));
    }

    #[test]
    fn empty_partition_yields_none() {
        assert_eq!(AggFunc::Count.apply(&[]).unwrap(), None);
        assert_eq!(AggFunc::Sum(0).apply(&[]).unwrap(), None);
    }

    #[test]
    fn non_numeric_sum_errors() {
        let p = vec![(tuple![1, "x"], Time::new(5))];
        assert!(matches!(
            AggFunc::Sum(1).apply(&p),
            Err(Error::NonNumericAggregate {
                function: "sum",
                attribute: 1
            })
        ));
        // min/max over strings are fine (total order).
        assert_eq!(AggFunc::Min(1).apply(&p).unwrap(), Some(Value::str("x")));
    }

    #[test]
    fn validate_positions() {
        assert!(AggFunc::Sum(1).validate(2).is_ok());
        assert!(AggFunc::Sum(2).validate(2).is_err());
        assert!(AggFunc::Count.validate(0).is_ok());
    }

    #[test]
    fn result_types() {
        assert_eq!(AggFunc::Count.result_type(None), ValueType::Int);
        assert_eq!(
            AggFunc::Sum(0).result_type(Some(ValueType::Int)),
            ValueType::Int
        );
        assert_eq!(
            AggFunc::Sum(0).result_type(Some(ValueType::Float)),
            ValueType::Float
        );
        assert_eq!(
            AggFunc::Avg(0).result_type(Some(ValueType::Int)),
            ValueType::Float
        );
        assert_eq!(
            AggFunc::Min(0).result_type(Some(ValueType::Str)),
            ValueType::Str
        );
    }

    #[test]
    fn display_uses_one_based_subscript() {
        assert_eq!(AggFunc::Sum(0).to_string(), "sum_1");
        assert_eq!(AggFunc::Count.to_string(), "count");
    }

    fn pol() -> Relation {
        // Figure 1(a).
        Relation::from_rows(
            Schema::of(&[("uid", ValueType::Int), ("deg", ValueType::Int)]),
            vec![
                (tuple![1, 25], Time::new(10)),
                (tuple![2, 25], Time::new(15)),
                (tuple![3, 35], Time::new(10)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn partition_groups_by_attribute() {
        let parts = partition(&pol(), &[1], Time::ZERO);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, tuple![25]);
        assert_eq!(parts[0].1.len(), 2);
        assert_eq!(parts[1].0, tuple![35]);
        assert_eq!(parts[1].1.len(), 1);
    }

    #[test]
    fn partition_respects_tau() {
        // At time 10 only ⟨2,25⟩ survives.
        let parts = partition(&pol(), &[1], Time::new(10));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].1.len(), 1);
        assert_eq!(parts[0].1[0].0, tuple![2, 25]);
    }

    #[test]
    fn empty_group_by_is_one_partition() {
        let parts = partition(&pol(), &[], Time::ZERO);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].1.len(), 3);
    }

    /// `count` keeps the summary and nothing else: no row is copied.
    #[test]
    fn a_count_group_holds_no_row() {
        let mut counts = Partitions::new(&[1], AggFunc::Count, false);
        for (t, e) in pol().iter_at(Time::ZERO) {
            assert!(!counts.push(t, e), "no row is kept");
        }
        let mut groups = counts.into_groups();
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.rows.is_empty()));
        let g = &mut groups[0];
        assert_eq!((&g.key, g.n), (&tuple![25], 2));
        assert_eq!((g.earliest, g.latest), (Time::new(10), Time::new(15)));
        assert_eq!(g.value(AggFunc::Count).unwrap(), Value::Int(2));
        assert_eq!(g.first_change(AggFunc::Count).unwrap(), Time::new(10));
    }

    /// `[0, 2]` is not one run, so its key is gathered; `[1, 2]` is, so
    /// its key is read off the row in place. Both group as `φexp` does.
    #[test]
    fn a_key_gathered_or_borrowed_groups_alike() {
        let r = [
            (tuple![1, 7, 2], Time::new(4)),
            (tuple![2, 7, 2], Time::new(6)),
            (tuple![1, 8, 2], Time::new(8)),
            (tuple![1, 7, 3], Time::new(9)),
        ];
        for (group_by, keys) in [
            (&[0, 2][..], [tuple![1, 2], tuple![2, 2], tuple![1, 3]]),
            (&[1, 2][..], [tuple![7, 2], tuple![8, 2], tuple![7, 3]]),
        ] {
            let mut parts = Partitions::new(group_by, AggFunc::Count, true);
            for (t, e) in &r {
                assert!(parts.push(t, *e), "rows are kept");
            }
            let groups = parts.into_groups();
            let got: Vec<_> = groups.iter().map(|g| (g.key.clone(), g.n)).collect();
            let want: Vec<_> = keys.into_iter().zip([2, 1, 1]).collect();
            assert_eq!(got, want, "{group_by:?}");
        }
    }

    /// A `sum` column is exact `i64`s until a value is not an INT, and
    /// then every value as it was pushed: the value and ν are still those
    /// of the rows.
    #[test]
    fn an_int_column_turns_into_values_at_the_first_float() {
        let p = vec![
            (tuple![1, 2], Time::new(5)),
            (tuple![2, 2.5], Time::new(7)),
            (tuple![3, 1], Time::new(9)),
        ];
        for f in [AggFunc::Sum(1), AggFunc::Avg(1)] {
            let mut parts = Partitions::new(&[], f, false);
            for (t, e) in &p {
                parts.push(t, *e);
            }
            let mut g = parts.into_groups().pop().expect("one group");
            assert_eq!(Some(g.value(f).unwrap()), f.apply(&p).unwrap(), "{f}");
            // The 2 leaving at 5 changes both; `exptime-literal` holds
            // `first_change` to the timeline ν on these rows.
            assert_eq!(g.first_change(f).unwrap(), Time::new(5), "{f}");
        }
    }

    #[test]
    fn result_texp_naive_is_partition_min() {
        let p = rows(&[(1, 25, 10), (2, 25, 15)]);
        assert_eq!(
            result_texp(&p, AggFunc::Count, AggMode::Naive, Time::ZERO).unwrap(),
            Time::new(10)
        );
    }

    #[test]
    fn result_texp_modes_are_ordered() {
        // lifetime(Naive) <= lifetime(Contributing) <= lifetime(Exact)
        // for a min aggregate where the minimum is held by a long-lived
        // tuple: p has min value 10 held until 20; a non-contributing tuple
        // expires at 5.
        let p = rows(&[(1, 10, 20), (2, 30, 5)]);
        let naive = result_texp(&p, AggFunc::Min(1), AggMode::Naive, Time::ZERO).unwrap();
        let contrib = result_texp(&p, AggFunc::Min(1), AggMode::Contributing, Time::ZERO).unwrap();
        let exact = result_texp(&p, AggFunc::Min(1), AggMode::Exact, Time::ZERO).unwrap();
        assert_eq!(naive, Time::new(5));
        assert!(naive <= contrib && contrib <= exact);
        assert_eq!(exact, Time::new(20), "min never changes until 20");
    }
}
