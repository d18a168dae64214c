//! The Theorem 3 queue: patching a materialised root difference or
//! aggregation instead of recomputing it (paper Section 3.4.2).
//!
//! A materialised `R −exp S` becomes invalid when a *critical* tuple — one
//! present in both arguments with `texp_R(t) > texp_S(t)` — should reappear
//! in the result as its `S`-copy expires. Theorem 3 shows that keeping the
//! helper relation
//!
//! ```text
//! R(R −exp S) = { r | r ∈ expτ(R) ∧ r ∈ expτ(S) }    with texp_*(t) = texp_S(t)
//! ```
//!
//! as a priority queue and inserting each tuple into the materialised
//! difference when it "expires" from the helper (with final expiration time
//! `texp_R(t)`) makes the materialised expression's expiration time `∞`:
//! recomputation is never needed, at the cost of `O(|R ∩ S|)` extra storage.
//!
//! A materialised aggregation goes wrong one group at a time, at the
//! group's cut: the first change of its value (ν) or its mode's bound,
//! whichever is first (Section 2.6.1). Its rows cannot reappear, but the
//! group can be recomputed — from its own input rows alone, and without
//! the base relations, since an aggregate of the survivors is all a fresh
//! evaluation would compute for it. So the same queue holds a second kind
//! of entry: a group, due at its cut, with its key and its input rows
//! (tuples are shared, not copied). Applying it at `τ` recomputes that one
//! group from its survivors (`texp > τ`) with the code an evaluation runs
//! ([`GroupRows`]), emits its rows, drops the rows it emitted last — all
//! expired by its cut — and queues it again at its next cut if the group
//! is not dead by then. A root aggregation with its groups queued has the
//! `texp(e)` of its input: recomputation is never needed, at the cost of
//! keeping the rows of each group that is still to change.

use crate::aggregate::{Group, Row};
use crate::algebra::ops::{CriticalTuple, Cut, GroupRows};
use crate::hash::RowSet;
use crate::relation::{DuplicatePolicy, Relation};
use crate::time::Time;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One pending patch.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Patch {
    /// A difference's critical tuple, inserted when it reappears.
    Tuple(CriticalTuple),
    /// An aggregation's group, recomputed at its cut from `rows`.
    Group { key: Tuple, rows: Vec<Row> },
}

// Heap ordering: earliest due time first; sequence number breaks ties
// deterministically by insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HeapItem {
    key: Reverse<(Time, u64)>,
    patch: Patch,
}

impl HeapItem {
    fn due(&self) -> Time {
        self.key.0 .0
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// How a queued group becomes rows, and where its key sits in a row.
#[derive(Debug, Clone)]
struct Regroup {
    shape: GroupRows<'static>,
    key_cols: Vec<usize>,
}

impl Regroup {
    /// Whether `t` is a row of one of the groups `keys`.
    fn holds(&self, keys: &RowSet<Tuple>, t: &Tuple, scratch: &mut Vec<Value>) -> bool {
        scratch.clear();
        scratch.extend(self.key_cols.iter().map(|&c| t.attr(c).clone()));
        keys.contains(scratch.as_slice())
    }
}

/// The priority queue of pending patches of one materialised root: a
/// difference's critical tuples or an aggregation's groups.
///
/// The paper: "we can interpret this priority queue as a helper relation
/// whose tuples expire; when they expire, they should simply be inserted
/// into the materialised difference expression."
#[derive(Debug, Clone, Default)]
pub struct PatchQueue {
    heap: BinaryHeap<HeapItem>,
    seq: u64,
    /// `Some` for an aggregation's queue.
    groups: Option<Regroup>,
}

impl PatchQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        PatchQueue::default()
    }

    /// Builds the queue from the critical tuples of a difference
    /// (`O(n log n)`, as the paper notes — standard heap construction).
    #[must_use]
    pub fn from_critical(critical: Vec<CriticalTuple>) -> Self {
        let mut q = PatchQueue::new();
        for c in critical {
            q.push(c);
        }
        q
    }

    /// Builds an aggregation's queue: each group due at its cut. `shape`
    /// turns a group into rows and `key_cols` finds its key in one.
    pub(crate) fn of_groups(
        shape: GroupRows<'static>,
        key_cols: Vec<usize>,
        groups: Vec<(Cut, Group)>,
    ) -> Self {
        let mut q = PatchQueue {
            groups: Some(Regroup { shape, key_cols }),
            ..PatchQueue::new()
        };
        for (cut, group) in groups {
            q.push_group(cut, group);
        }
        q
    }

    /// Enqueues a patch: `entry.tuple` is due at `appears_at`.
    pub fn push(&mut self, entry: CriticalTuple) {
        self.push_due(entry.appears_at, Patch::Tuple(entry));
    }

    fn push_group(&mut self, cut: Cut, group: Group) {
        let (key, rows) = (group.key, group.rows);
        self.push_due(cut.at, Patch::Group { key, rows });
    }

    fn push_due(&mut self, due: Time, patch: Patch) {
        let key = Reverse((due, self.seq));
        self.seq += 1;
        self.heap.push(HeapItem { key, patch });
    }

    /// Number of pending patches (`≤ |R ∩ S|` when built from a
    /// difference, `≤` the number of groups from an aggregation).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no patches are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The tuples the queue holds: one per critical tuple, and a group's
    /// input rows.
    #[must_use]
    pub fn tuples(&self) -> usize {
        let held = |item: &HeapItem| match &item.patch {
            Patch::Tuple(_) => 1,
            Patch::Group { rows, .. } => rows.len(),
        };
        self.heap.iter().map(held).sum()
    }

    /// The next instant at which a patch becomes due, if any.
    #[must_use]
    pub fn next_due(&self) -> Option<Time> {
        self.heap.peek().map(HeapItem::due)
    }

    /// Adds to `rows` — the stored rows `expτ` at `τ` — what the queued
    /// patches due by `τ` make of them, without consuming the patches:
    /// each critical tuple in the result at `τ` (`appears_at ≤ τ <
    /// disappears_at`), and each due group recomputed at `τ`. Draining
    /// ([`PatchQueue::apply_due`]) does the same to the stored rows, so the
    /// two never count one twice.
    ///
    /// # Panics
    ///
    /// Panics if a patched tuple does not match the result schema — a
    /// queue/result mismatch is a logic error, not user input.
    pub fn add_due(&self, rows: &mut Relation, tau: Time) {
        let due = self.heap.iter().filter(|item| item.due() <= tau);
        self.apply(due.map(|item| item.patch.clone()).collect(), rows, tau);
    }

    /// Pops every patch due at or before `τ`.
    fn drain_due(&mut self, tau: Time) -> Vec<Patch> {
        let mut out = Vec::new();
        while self.heap.peek().is_some_and(|item| item.due() <= tau) {
            out.push(self.heap.pop().expect("peeked").patch);
        }
        out
    }

    /// Applies all due patches to the materialised result at `τ`. A
    /// critical tuple is inserted with expiration time `texp_R(t)`
    /// (Theorem 3) — one already expired (`disappears_at ≤ τ`) is skipped,
    /// since inserting and immediately expiring it is equivalent. A group
    /// has the rows it emitted last dropped and is recomputed at `τ`: its
    /// rows are emitted, and it is queued again at its next cut if it is
    /// not dead by then, with only its survivors. Returns the number of
    /// patches applied: tuples inserted and groups recomputed.
    ///
    /// # Panics
    ///
    /// Panics if a patched tuple does not match the result schema, which
    /// would indicate queue/result mismatch (a logic error, not user
    /// input).
    pub fn apply_due(&mut self, result: &mut Relation, tau: Time) -> usize {
        let due = self.drain_due(tau);
        let (applied, again) = self.apply(due, result, tau);
        for (cut, group) in again {
            self.push_group(cut, group);
        }
        applied
    }

    /// Applies the patches `due` by `τ` to `rel` ([`PatchQueue::apply_due`]),
    /// and answers how many applied and which groups are due again.
    fn apply(&self, due: Vec<Patch>, rel: &mut Relation, tau: Time) -> (usize, Vec<(Cut, Group)>) {
        let mut scratch = Vec::new();
        if let Some(regroup) = &self.groups {
            // The rows each due group emitted last: expired by its cut.
            let mut keys = RowSet::default();
            for patch in &due {
                if let Patch::Group { key, .. } = patch {
                    keys.insert(key.clone());
                }
            }
            if !keys.is_empty() {
                rel.retain(|t, e| e > tau || !regroup.holds(&keys, t, &mut scratch));
            }
        }
        let (mut applied, mut again) = (0, Vec::new());
        for patch in due {
            match patch {
                Patch::Tuple(c) if tau < c.disappears_at => {
                    rel.insert_with(c.tuple, c.disappears_at, DuplicatePolicy::Replace)
                        .expect("patch tuple must match result schema");
                    applied += 1;
                }
                Patch::Tuple(_) => {}
                Patch::Group { key, rows, .. } => {
                    let regroup = self
                        .groups
                        .as_ref()
                        .expect("a group is queued with its shape");
                    again.extend(regroup.shape.regroup(key, rows, tau, rel, &mut scratch));
                    applied += 1;
                }
            }
        }
        (applied, again)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::ops;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::ValueType;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    /// The tuples of drained critical-tuple patches, in order.
    fn critical(due: Vec<Patch>) -> Vec<Tuple> {
        let tuple = |p| match p {
            Patch::Tuple(c) => c.tuple,
            Patch::Group { .. } => panic!("a difference's queue holds no group"),
        };
        due.into_iter().map(tuple).collect()
    }

    fn rel(rows: &[(i64, u64)]) -> Relation {
        let mut r = Relation::new(Schema::of(&[("x", ValueType::Int)]));
        for &(x, e) in rows {
            let e = if e == 0 { Time::INFINITY } else { t(e) };
            r.insert(tuple![x], e).unwrap();
        }
        r
    }

    #[test]
    fn queue_orders_by_appearance_time() {
        let r = rel(&[(1, 10), (2, 15), (3, 20)]);
        let s = rel(&[(1, 5), (2, 3), (3, 8)]);
        let (_, crit) = ops::one_pass_difference(r, &s, Time::ZERO);
        let mut q = PatchQueue::from_critical(crit);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_due(), Some(t(3)));
        let due = critical(q.drain_due(t(5)));
        assert_eq!(due, [tuple![2], tuple![1]]);
        assert_eq!(q.next_due(), Some(t(8)));
    }

    #[test]
    fn manual_push_and_tie_breaking() {
        let mut q = PatchQueue::new();
        q.push(CriticalTuple {
            tuple: tuple![1],
            appears_at: t(5),
            disappears_at: t(9),
        });
        q.push(CriticalTuple {
            tuple: tuple![2],
            appears_at: t(5),
            disappears_at: t(8),
        });
        let due = critical(q.drain_due(t(5)));
        assert_eq!(due, [tuple![1], tuple![2]], "FIFO among equal times");
    }
}
