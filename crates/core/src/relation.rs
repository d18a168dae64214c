//! Relations with per-tuple expiration times.
//!
//! The paper leaves the relational model intact and adds, for every relation
//! `R`, a function `texp_R(·)` mapping each tuple to its expiration time
//! (Section 2.2). A [`Relation`] stores exactly that: a *set* of tuples
//! (relations are sets, not bags — projection and union deduplicate) plus
//! the expiration-time function: a `Vec` of `(tuple, texp)` rows in
//! insertion order, and a tuple → row index that is built only when
//! something asks a membership question (`texp`, `contains`, a
//! deduplicating insert, `remove`). Only π and ∪ can make two rows
//! coincide (Equations 3 and 4); a σ, a product, a join, an intersection
//! and a difference of sets are sets, so those operators append their rows
//! without hashing them, and a result that nobody looks a tuple up in is
//! never hashed at all.
//!
//! The other central definition of the paper is
//!
//! ```text
//! expτ(R) = { r | r ∈ R ∧ texp_R(r) > τ }
//! ```
//!
//! — the sub-relation of tuples unexpired at time `τ` — provided here as
//! [`Relation::exp`] (snapshot) and [`Relation::expire`] (in-place, the
//! *eager removal* of Section 3.2).

use crate::error::Result;
use crate::hash::RowMap;
use crate::schema::Schema;
use crate::time::Time;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::OnceLock;

/// What to do when a tuple is inserted that is already present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicatePolicy {
    /// Keep the maximum of the stored and incoming expiration times. This is
    /// the paper's rule for projection (Eq. 3) and union (Eq. 4) and the
    /// default for building relations.
    KeepMax,
    /// The incoming expiration time wins (an *update* of the tuple's
    /// lifetime, the paper's only user-visible expiration-time operation
    /// besides insertion).
    Replace,
}

/// A relation: a set of tuples, each with an expiration time.
///
/// Tuple identity is pure value equality; inserting an existing tuple never
/// creates a duplicate, it only adjusts the expiration time according to a
/// [`DuplicatePolicy`]. Iteration order is insertion order, which keeps
/// query output and the regenerated paper figures deterministic.
#[derive(Clone)]
pub struct Relation {
    schema: Schema,
    rows: Vec<(Tuple, Time)>,
    /// Tuple → position in `rows`. Built by the first lookup,
    /// deduplicating insert or removal, kept up to date from then on, and
    /// dropped by what moves rows wholesale (`expire`, a sort, a
    /// truncation); an `exp` snapshot starts without one. A relation
    /// nobody asks about is never hashed.
    index: OnceLock<RowMap<Tuple, usize>>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
            index: OnceLock::new(),
        }
    }

    /// The tuple index, built on first use.
    fn index(&self) -> &RowMap<Tuple, usize> {
        self.index.get_or_init(|| {
            let positions = self.rows.iter().enumerate();
            positions.map(|(i, (t, _))| (t.clone(), i)).collect()
        })
    }

    /// Creates a relation and inserts `(tuple, texp)` rows with
    /// [`DuplicatePolicy::KeepMax`].
    ///
    /// # Errors
    ///
    /// Returns a schema error if any tuple fails [`Schema::check`].
    pub fn from_rows<I>(schema: Schema, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = (Tuple, Time)>,
    {
        let mut r = Relation::new(schema);
        for (t, e) in rows {
            r.insert(t, e)?;
        }
        Ok(r)
    }

    /// The schema.
    #[inline]
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The arity `α(R)`.
    #[inline]
    #[must_use]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples (expired tuples still physically present count; see
    /// [`Relation::count_unexpired`] for the `expτ` cardinality).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation holds no tuples at all.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a tuple with [`DuplicatePolicy::KeepMax`].
    ///
    /// # Errors
    ///
    /// Returns a schema error if the tuple fails [`Schema::check`].
    pub fn insert(&mut self, tuple: Tuple, texp: Time) -> Result<()> {
        self.insert_with(tuple, texp, DuplicatePolicy::KeepMax)
    }

    /// Inserts a tuple with an explicit duplicate policy.
    ///
    /// # Errors
    ///
    /// Returns a schema error if the tuple fails [`Schema::check`].
    pub fn insert_with(&mut self, tuple: Tuple, texp: Time, policy: DuplicatePolicy) -> Result<()> {
        self.schema.check(&tuple)?;
        match self.index().get(&tuple) {
            Some(&i) => {
                let stored = &mut self.rows[i].1;
                *stored = match policy {
                    DuplicatePolicy::KeepMax => (*stored).max(texp),
                    DuplicatePolicy::Replace => texp,
                };
            }
            None => self.push_distinct(tuple, texp),
        }
        Ok(())
    }

    /// Appends a row whose tuple is known not to be in the relation and to
    /// be of the schema's types, without looking it up or checking it: the
    /// insert of an operator whose output is a set because its inputs are —
    /// σ, ×, ⋈, ∩, − and the aggregation's Klug rows (every `Relation` and
    /// every stored table is a set). The index is kept up to date only if
    /// something has built it.
    pub(crate) fn push_distinct(&mut self, tuple: Tuple, texp: Time) {
        debug_assert!(
            self.schema.check(&tuple).is_ok(),
            "{tuple} is not of {:?}",
            self.schema
        );
        let at = self.rows.len();
        if let Some(index) = self.index.get_mut() {
            let old = index.insert(tuple.clone(), at);
            debug_assert!(old.is_none(), "{tuple} is already in the relation");
        }
        self.rows.push((tuple, texp));
    }

    /// Inserts `t` projected onto `positions` with
    /// [`DuplicatePolicy::KeepMax`] — Equation 3's maximum over the rows
    /// that coincide under the projection — and builds the projected tuple
    /// only if no equal one is present: the lookup is by the values,
    /// gathered in `scratch`. Returns whether a tuple was added.
    ///
    /// # Errors
    ///
    /// Returns a schema error if a new tuple fails [`Schema::check`].
    ///
    /// # Panics
    ///
    /// Panics if a position is out of `t`'s range.
    pub fn insert_projection(
        &mut self,
        t: &Tuple,
        positions: &[usize],
        texp: Time,
        scratch: &mut Vec<Value>,
    ) -> Result<bool> {
        scratch.clear();
        scratch.extend(positions.iter().map(|&j| t.attr(j).clone()));
        if let Some(&i) = self.index().get(scratch.as_slice()) {
            let stored = &mut self.rows[i].1;
            *stored = (*stored).max(texp);
            return Ok(false);
        }
        let tuple = Tuple::new(scratch.as_slice());
        self.schema.check(&tuple)?;
        self.push_distinct(tuple, texp);
        Ok(true)
    }

    /// Removes a tuple, returning its expiration time if it was present.
    /// Preserves the insertion order of the remaining tuples.
    pub fn remove(&mut self, tuple: &Tuple) -> Option<Time> {
        self.index();
        let index = self.index.get_mut().expect("the index was just built");
        let i = index.remove(tuple)?;
        let (_, texp) = self.rows.remove(i);
        for (j, (t, _)) in self.rows.iter().enumerate().skip(i) {
            *index.get_mut(t).expect("index out of sync") = j;
        }
        Some(texp)
    }

    /// The expiration-time function `texp_R(·)`: the expiration time of a
    /// tuple, or `None` if the tuple is not in the relation.
    #[must_use]
    pub fn texp(&self, tuple: &Tuple) -> Option<Time> {
        self.index().get(tuple).map(|&i| self.rows[i].1)
    }

    /// Whether the tuple is physically present (expired or not).
    #[must_use]
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.index().contains_key(tuple)
    }

    /// Whether the tuple is present *and* unexpired at `τ`
    /// (`r ∈ expτ(R)`).
    #[must_use]
    pub fn contains_at(&self, tuple: &Tuple, tau: Time) -> bool {
        self.texp(tuple).is_some_and(|e| e > tau)
    }

    /// The rows `(tuple, texp)`, moved out in insertion order, expired
    /// ones included.
    pub(crate) fn into_rows(self) -> Vec<(Tuple, Time)> {
        self.rows
    }

    /// Iterates `(tuple, texp)` in insertion order, including expired rows.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, Time)> + '_ {
        self.rows.iter().map(|(t, e)| (t, *e))
    }

    /// Iterates the tuples of `expτ(R)`, i.e. rows with `texp > τ`, in
    /// insertion order.
    pub fn iter_at(&self, tau: Time) -> impl Iterator<Item = (&Tuple, Time)> + '_ {
        self.rows
            .iter()
            .filter(move |(_, e)| *e > tau)
            .map(|(t, e)| (t, *e))
    }

    /// `|expτ(R)|`: the number of unexpired tuples at `τ`.
    #[must_use]
    pub fn count_unexpired(&self, tau: Time) -> usize {
        self.rows.iter().filter(|(_, e)| *e > tau).count()
    }

    /// The function `expτ` of the paper as a snapshot: a new relation
    /// containing exactly the tuples unexpired at `τ`, with their expiration
    /// times.
    #[must_use]
    pub fn exp(&self, tau: Time) -> Relation {
        Relation {
            schema: self.schema.clone(),
            rows: self.iter_at(tau).map(|(t, e)| (t.clone(), e)).collect(),
            index: OnceLock::new(),
        }
    }

    /// Eager removal (Section 3.2): physically deletes every tuple with
    /// `texp ≤ τ` and returns the removed rows (so triggers can fire on
    /// them). Insertion order of survivors is preserved.
    pub fn expire(&mut self, tau: Time) -> Vec<(Tuple, Time)> {
        let (kept, removed) = self.rows.drain(..).partition(|&(_, e)| e > tau);
        self.rows = kept;
        self.index.take();
        removed
    }

    /// Keeps only the rows `keep` holds for, in insertion order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Tuple, Time) -> bool) {
        let len = self.rows.len();
        self.rows.retain(|(t, e)| keep(t, *e));
        if self.rows.len() < len {
            self.index.take();
        }
    }

    /// The earliest finite expiration time strictly greater than `τ` — the
    /// next instant at which `expτ(R)` shrinks. `None` if nothing further
    /// expires (all remaining tuples carry `∞` or expired already).
    #[must_use]
    pub fn next_expiration(&self, tau: Time) -> Option<Time> {
        self.rows
            .iter()
            .filter(|(_, e)| *e > tau && e.is_finite())
            .map(|(_, e)| *e)
            .min()
    }

    /// The minimum expiration time over unexpired tuples at `τ`; `None` on
    /// an empty `expτ(R)`.
    #[must_use]
    pub fn min_texp(&self, tau: Time) -> Option<Time> {
        Time::min_of(self.iter_at(tau).map(|(_, e)| e))
    }

    /// All *distinct, finite* expiration times of unexpired tuples at `τ`,
    /// ascending. These are the only instants where anything can change —
    /// the event times the χ/ν machinery and the experiment drivers sweep.
    #[must_use]
    pub fn event_times(&self, tau: Time) -> Vec<Time> {
        let mut ts: Vec<Time> = self
            .iter_at(tau)
            .filter(|(_, e)| e.is_finite())
            .map(|(_, e)| e)
            .collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// Set equality including expiration times: same tuples, each with the
    /// same `texp`, regardless of insertion order.
    #[must_use]
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.rows.len() == other.rows.len() && self.iter().all(|(t, e)| other.texp(t) == Some(e))
    }

    /// Set equality of the *unexpired* portions at `τ`, including
    /// expiration times. This is the equality used by the paper's theorems:
    /// `expτ′(e) = expτ′(expτ(e))`.
    #[must_use]
    pub fn set_eq_at(&self, other: &Relation, tau: Time) -> bool {
        self.count_unexpired(tau) == other.count_unexpired(tau)
            && self.iter_at(tau).all(|(t, e)| other.texp(t) == Some(e))
    }

    /// Set equality ignoring expiration times (pure tuple sets at `τ`).
    #[must_use]
    pub fn tuples_eq_at(&self, other: &Relation, tau: Time) -> bool {
        self.count_unexpired(tau) == other.count_unexpired(tau)
            && self.iter_at(tau).all(|(t, _)| other.contains_at(t, tau))
    }

    /// Sorts rows by tuple value (total order), useful for deterministic
    /// output in reports.
    pub fn sort_by_tuple(&mut self) {
        self.sort_rows_by(|a, b| {
            a.values()
                .iter()
                .zip(b.values().iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| !o.is_eq())
                .unwrap_or(Ordering::Equal)
        });
    }

    /// Reorders the rows by `cmp` on their tuples, stably — `ORDER BY`.
    /// The set and every `texp` are unchanged.
    pub fn sort_rows_by(&mut self, mut cmp: impl FnMut(&Tuple, &Tuple) -> Ordering) {
        self.rows.sort_by(|(a, _), (b, _)| cmp(a, b));
        self.index.take();
    }

    /// Keeps the first `n` rows in iteration order — `LIMIT`: a subset, so
    /// still a set, each survivor with its own `texp`.
    pub fn truncate(&mut self, n: usize) {
        if n < self.rows.len() {
            self.rows.truncate(n);
            self.index.take();
        }
    }

    /// Checks union compatibility with another relation.
    ///
    /// # Errors
    ///
    /// Returns [`Schema::check_union_compatible`]'s error when schemas
    /// differ in arity or positional types.
    pub fn check_union_compatible(&self, other: &Relation) -> Result<()> {
        self.schema.check_union_compatible(&other.schema)
    }

    /// Renders the relation as the paper renders its figures: one line per
    /// tuple, expiration time first. Expired rows (w.r.t. `τ`) are omitted.
    #[must_use]
    pub fn render_at(&self, tau: Time) -> String {
        let mut out = String::new();
        for (t, e) in self.iter_at(tau) {
            out.push_str(&format!("{e:>4}  {t}\n"));
        }
        if out.is_empty() {
            out.push_str("∅ (the relation is empty)\n");
        }
        out
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation{:?} [", self.schema)?;
        for (t, e) in self.iter() {
            writeln!(f, "  texp={e} {t}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::tuple;
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::of(&[("uid", ValueType::Int), ("deg", ValueType::Int)])
    }

    /// The `Pol` relation of Figure 1(a).
    fn pol() -> Relation {
        Relation::from_rows(
            schema(),
            vec![
                (tuple![1, 25], Time::new(10)),
                (tuple![2, 25], Time::new(15)),
                (tuple![3, 35], Time::new(10)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let r = pol();
        assert_eq!(r.len(), 3);
        assert_eq!(r.texp(&tuple![1, 25]), Some(Time::new(10)));
        assert_eq!(r.texp(&tuple![9, 9]), None);
        assert!(r.contains(&tuple![2, 25]));
    }

    #[test]
    fn insert_rejects_schema_violations() {
        let mut r = Relation::new(schema());
        assert!(r.insert(tuple![1], Time::INFINITY).is_err());
        assert!(r.insert(tuple![1, "x"], Time::INFINITY).is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn duplicate_policies() {
        let mut r = Relation::new(schema());
        r.insert(tuple![1, 1], Time::new(5)).unwrap();
        r.insert(tuple![1, 1], Time::new(9)).unwrap(); // KeepMax
        assert_eq!(r.texp(&tuple![1, 1]), Some(Time::new(9)));
        r.insert_with(tuple![1, 1], Time::new(7), DuplicatePolicy::Replace)
            .unwrap();
        assert_eq!(r.texp(&tuple![1, 1]), Some(Time::new(7)));
        assert_eq!(r.len(), 1, "duplicates never create new rows");
    }

    /// Row by row, `insert_projection` is Equation 3's
    /// `insert_with(t.project(ps), e, KeepMax)`, and says which rows
    /// started a group.
    #[test]
    fn insert_projection_keeps_the_max_and_reports_new_tuples() {
        let mut r = Relation::new(schema().project(&[1]).unwrap());
        let mut scratch = Vec::new();
        let added: Vec<bool> = pol()
            .iter()
            .map(|(t, e)| r.insert_projection(t, &[1], e, &mut scratch).unwrap())
            .collect();
        assert_eq!(added, [true, false, true]);
        let rows: Vec<_> = r.iter().map(|(t, e)| (t.clone(), e)).collect();
        assert_eq!(
            rows,
            [(tuple![25], Time::new(15)), (tuple![35], Time::new(10))]
        );
        let mut bad = Relation::new(Schema::of(&[("s", ValueType::Str)]));
        assert!(bad
            .insert_projection(&tuple![1, 25], &[0], Time::INFINITY, &mut scratch)
            .is_err());
        assert!(bad.is_empty());
    }

    #[test]
    fn exp_tau_filters_strictly() {
        // texp > τ keeps the tuple: a tuple expiring at 10 is gone AT 10.
        let r = pol();
        assert_eq!(r.count_unexpired(Time::ZERO), 3);
        assert_eq!(r.count_unexpired(Time::new(9)), 3);
        assert_eq!(r.count_unexpired(Time::new(10)), 1);
        assert_eq!(r.count_unexpired(Time::new(15)), 0);
        let snap = r.exp(Time::new(10));
        assert_eq!(snap.len(), 1);
        assert!(snap.contains(&tuple![2, 25]));
    }

    #[test]
    fn expire_removes_eagerly_and_reports() {
        let mut r = pol();
        let removed = r.expire(Time::new(10));
        assert_eq!(removed.len(), 2);
        assert!(removed.iter().any(|(t, _)| *t == tuple![1, 25]));
        assert!(removed.iter().any(|(t, _)| *t == tuple![3, 35]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.texp(&tuple![2, 25]), Some(Time::new(15)));
        // Index stays coherent after compaction.
        assert!(r.contains(&tuple![2, 25]));
        assert!(!r.contains(&tuple![1, 25]));
    }

    #[test]
    fn remove_preserves_order_and_index() {
        let mut r = pol();
        assert_eq!(r.remove(&tuple![1, 25]), Some(Time::new(10)));
        assert_eq!(r.remove(&tuple![1, 25]), None);
        let order: Vec<_> = r.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(order, vec![tuple![2, 25], tuple![3, 35]]);
        assert_eq!(r.texp(&tuple![3, 35]), Some(Time::new(10)));
    }

    #[test]
    fn next_expiration_and_event_times() {
        let r = pol();
        assert_eq!(r.next_expiration(Time::ZERO), Some(Time::new(10)));
        assert_eq!(r.next_expiration(Time::new(10)), Some(Time::new(15)));
        assert_eq!(r.next_expiration(Time::new(15)), None);
        assert_eq!(
            r.event_times(Time::ZERO),
            vec![Time::new(10), Time::new(15)]
        );
        let mut with_inf = r.clone();
        with_inf.insert(tuple![7, 7], Time::INFINITY).unwrap();
        assert_eq!(
            with_inf.event_times(Time::ZERO),
            vec![Time::new(10), Time::new(15)],
            "∞ rows generate no events"
        );
    }

    #[test]
    fn min_max_texp() {
        let r = pol();
        assert_eq!(r.min_texp(Time::ZERO), Some(Time::new(10)));
        assert_eq!(r.min_texp(Time::new(15)), None);
    }

    #[test]
    fn set_equality_flavours() {
        let a = pol();
        let mut b = Relation::new(schema());
        // Same rows, different insertion order.
        b.insert(tuple![3, 35], Time::new(10)).unwrap();
        b.insert(tuple![1, 25], Time::new(10)).unwrap();
        b.insert(tuple![2, 25], Time::new(15)).unwrap();
        assert!(a.set_eq(&b));
        assert!(a.set_eq_at(&b, Time::ZERO));

        // Different texp breaks set_eq but not tuples_eq.
        let mut c = b.clone();
        c.insert_with(tuple![1, 25], Time::new(12), DuplicatePolicy::Replace)
            .unwrap();
        assert!(!a.set_eq(&c));
        assert!(a.tuples_eq_at(&c, Time::ZERO));

        // After both sides expire past 10, they agree again.
        assert!(a.set_eq_at(&c, Time::new(12)));
    }

    #[test]
    fn render_matches_figure_style() {
        let r = pol();
        let s = r.render_at(Time::ZERO);
        assert!(s.contains("10  ⟨1, 25⟩"));
        assert!(s.contains("15  ⟨2, 25⟩"));
        let empty = r.render_at(Time::new(20));
        assert!(empty.contains('∅'));
    }

    #[test]
    fn union_compatibility_check() {
        let a = pol();
        let b = Relation::new(Schema::of(&[("x", ValueType::Str)]));
        assert!(a.check_union_compatible(&pol()).is_ok());
        assert!(matches!(
            a.check_union_compatible(&b),
            Err(Error::NotUnionCompatible { .. })
        ));
    }

    #[test]
    fn sort_by_tuple_orders_rows() {
        let mut r = Relation::new(schema());
        r.insert(tuple![3, 1], Time::INFINITY).unwrap();
        r.insert(tuple![1, 2], Time::INFINITY).unwrap();
        r.insert(tuple![2, 0], Time::INFINITY).unwrap();
        r.sort_by_tuple();
        let order: Vec<_> = r.iter().map(|(t, _)| t.attr(0).as_int().unwrap()).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(r.contains(&tuple![3, 1]), "index rebuilt after sort");
    }

    /// `ORDER BY … LIMIT`: a stable reorder, then a prefix; every survivor
    /// keeps its `texp`, and lookups see exactly the survivors.
    #[test]
    fn sort_rows_by_and_truncate_keep_a_subset() {
        let mut r = pol();
        assert!(r.contains(&tuple![3, 35]), "index built before the sort");
        r.sort_rows_by(|a, b| b.attr(1).total_cmp(a.attr(1)));
        let order: Vec<_> = r.iter().map(|(t, e)| (t.clone(), e)).collect();
        assert_eq!(
            order,
            [
                (tuple![3, 35], Time::new(10)),
                (tuple![1, 25], Time::new(10)),
                (tuple![2, 25], Time::new(15)),
            ],
            "descending on deg, ties in insertion order"
        );
        r.truncate(5);
        assert_eq!(r.len(), 3, "a longer limit keeps everything");
        r.truncate(2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.texp(&tuple![1, 25]), Some(Time::new(10)));
        assert!(!r.contains(&tuple![2, 25]), "the cut row is gone");
        r.insert(tuple![2, 25], Time::new(4)).unwrap();
        assert_eq!(r.len(), 3, "and can come back as a new row");
    }

    /// A row appended before anything looked a tuple up is found by the
    /// first lookup, which builds the index from the rows.
    #[test]
    fn push_distinct_then_lookup_builds_the_index() {
        let mut r = Relation::new(schema());
        r.push_distinct(tuple![1, 25], Time::new(10));
        r.push_distinct(tuple![2, 25], Time::new(15));
        assert!(r.index.get().is_none(), "nothing looked a tuple up yet");
        assert_eq!(r.texp(&tuple![2, 25]), Some(Time::new(15)));
        assert!(r.index.get().is_some());
        assert!(!r.contains(&tuple![3, 35]));
    }

    /// Once built, the index follows every append, and a deduplicating
    /// insert after that finds the appended row.
    #[test]
    fn push_distinct_after_a_lookup_keeps_the_index() {
        let mut r = pol();
        assert!(r.contains(&tuple![1, 25]));
        r.push_distinct(tuple![4, 45], Time::new(20));
        assert_eq!(r.texp(&tuple![4, 45]), Some(Time::new(20)));
        r.insert(tuple![4, 45], Time::new(30)).unwrap();
        assert_eq!(r.len(), 4, "the insert merged into the appended row");
        assert_eq!(r.texp(&tuple![4, 45]), Some(Time::new(30)));
        assert_eq!(r.remove(&tuple![1, 25]), Some(Time::new(10)));
        assert_eq!(r.texp(&tuple![4, 45]), Some(Time::new(30)));
    }

    /// A clone answers lookups whether or not the original had built its
    /// index, and the two evolve apart.
    #[test]
    fn clone_with_and_without_a_built_index() {
        let mut unbuilt = Relation::new(schema());
        unbuilt.push_distinct(tuple![1, 25], Time::new(10));
        let built = pol();
        assert!(built.contains(&tuple![1, 25]));
        for original in [unbuilt, built] {
            let had_index = original.index.get().is_some();
            let mut copy = original.clone();
            assert_eq!(copy.index.get().is_some(), had_index);
            copy.push_distinct(tuple![9, 99], Time::new(7));
            assert_eq!(copy.texp(&tuple![1, 25]), Some(Time::new(10)));
            assert_eq!(copy.texp(&tuple![9, 99]), Some(Time::new(7)));
            assert!(!original.contains(&tuple![9, 99]));
            assert_eq!(copy.len(), original.len() + 1);
        }
    }

    /// `exp` and `expire` hash nothing: their results build an index only
    /// when asked.
    #[test]
    fn exp_and_expire_leave_the_index_unbuilt() {
        let r = pol();
        assert!(r.contains(&tuple![1, 25]));
        let snap = r.exp(Time::new(10));
        assert!(snap.index.get().is_none());
        assert!(snap.contains(&tuple![2, 25]));
        let mut r = r;
        r.expire(Time::new(10));
        assert!(r.index.get().is_none());
        assert_eq!(r.texp(&tuple![2, 25]), Some(Time::new(15)));
    }
}
