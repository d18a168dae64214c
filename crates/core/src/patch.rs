//! Patching materialised differences with a priority queue (paper
//! Section 3.4.2, Theorem 3).
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

use crate::algebra::ops::CriticalTuple;
use crate::relation::{DuplicatePolicy, Relation};
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// Heap ordering: earliest `appears_at` first; sequence number breaks ties
// deterministically by insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HeapItem {
    key: Reverse<(Time, u64)>,
    entry: CriticalTuple,
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

/// The priority queue of pending patches for one materialised difference.
///
/// The paper: "we can interpret this priority queue as a helper relation
/// whose tuples expire; when they expire, they should simply be inserted
/// into the materialised difference expression."
#[derive(Debug, Clone, Default)]
pub struct PatchQueue {
    heap: BinaryHeap<HeapItem>,
    seq: u64,
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

    /// Enqueues a patch: `entry.tuple` is due at `appears_at`.
    pub fn push(&mut self, entry: CriticalTuple) {
        let key = Reverse((entry.appears_at, self.seq));
        self.seq += 1;
        self.heap.push(HeapItem { key, entry });
    }

    /// Number of pending patches (`≤ |R ∩ S|` when built from a
    /// difference).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no patches are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The next instant at which a patch becomes due, if any.
    #[must_use]
    pub fn next_due(&self) -> Option<Time> {
        self.heap.peek().map(|i| i.entry.appears_at)
    }

    /// The queued patches whose tuple is in the result at `τ`
    /// (`appears_at ≤ τ < disappears_at`), without consuming them: what a
    /// read adds to the stored rows. Draining ([`PatchQueue::apply_due`])
    /// moves the same tuples into the rows, so the two never count one
    /// twice.
    pub fn due_at(&self, tau: Time) -> impl Iterator<Item = &CriticalTuple> {
        self.heap
            .iter()
            .map(|item| &item.entry)
            .filter(move |e| e.appears_at <= tau && tau < e.disappears_at)
    }

    /// Pops every patch due at or before `τ` (those whose helper-relation
    /// copy has expired: `appears_at ≤ τ`).
    pub fn drain_due(&mut self, tau: Time) -> Vec<CriticalTuple> {
        let mut out = Vec::new();
        while let Some(item) = self.heap.peek() {
            if item.entry.appears_at <= tau {
                out.push(self.heap.pop().expect("peeked").entry);
            } else {
                break;
            }
        }
        out
    }

    /// Applies all due patches to a materialised difference result:
    /// inserts each due tuple with expiration time `texp_R(t)`
    /// (Theorem 3). Tuples already expired (`disappears_at ≤ τ`) are
    /// skipped — inserting and immediately expiring them is equivalent.
    /// Returns the number of tuples actually inserted.
    ///
    /// # Panics
    ///
    /// Panics if a patched tuple does not match the result schema, which
    /// would indicate queue/result mismatch (a logic error, not user
    /// input).
    pub fn apply_due(&mut self, result: &mut Relation, tau: Time) -> usize {
        let mut applied = 0;
        for entry in self.drain_due(tau) {
            if entry.disappears_at > tau {
                result
                    .insert_with(entry.tuple, entry.disappears_at, DuplicatePolicy::Replace)
                    .expect("patch tuple must match result schema");
                applied += 1;
            }
        }
        applied
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
        let mut q = PatchQueue::from_critical(ops::critical_tuples(&r, &s, Time::ZERO));
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_due(), Some(t(3)));
        let due = q.drain_due(t(5));
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].tuple, tuple![2]);
        assert_eq!(due[1].tuple, tuple![1]);
        assert_eq!(q.next_due(), Some(t(8)));
    }

    #[test]
    fn apply_due_inserts_with_texp_r() {
        let r = rel(&[(1, 10), (2, 15)]);
        let s = rel(&[(1, 5), (2, 3)]);
        let mut result = ops::difference(&r, &s, Time::ZERO).unwrap();
        assert!(result.is_empty());
        let mut q = PatchQueue::from_critical(ops::critical_tuples(&r, &s, Time::ZERO));

        let n = q.apply_due(&mut result, t(3));
        assert_eq!(n, 1);
        assert_eq!(result.texp(&tuple![2]), Some(t(15)));

        let n = q.apply_due(&mut result, t(5));
        assert_eq!(n, 1);
        assert_eq!(result.texp(&tuple![1]), Some(t(10)));
        assert!(q.is_empty());
    }

    #[test]
    fn theorem_3_patched_result_equals_recomputation() {
        // Sweep every instant; the patched materialisation must equal a
        // fresh recomputation at each time.
        let r = rel(&[(1, 10), (2, 15), (3, 4), (4, 0)]);
        let s = rel(&[(1, 5), (2, 3), (4, 7)]);
        let mut materialised = ops::difference(&r, &s, Time::ZERO).unwrap();
        let mut q = PatchQueue::from_critical(ops::critical_tuples(&r, &s, Time::ZERO));
        for now in 0..25 {
            let now = t(now);
            q.apply_due(&mut materialised, now);
            let fresh = ops::difference(&r, &s, now).unwrap();
            assert!(
                materialised.set_eq_at(&fresh, now),
                "mismatch at {now}: materialised={materialised:?} fresh={fresh:?}"
            );
        }
    }

    #[test]
    fn stale_patches_are_skipped() {
        // Tuple reappears at 3 and disappears at 4; applying at τ=6 after
        // missing the window inserts nothing.
        let r = rel(&[(1, 4)]);
        let s = rel(&[(1, 3)]);
        let mut result = ops::difference(&r, &s, Time::ZERO).unwrap();
        let mut q = PatchQueue::from_critical(ops::critical_tuples(&r, &s, Time::ZERO));
        let n = q.apply_due(&mut result, t(6));
        assert_eq!(n, 0);
        assert_eq!(result.count_unexpired(t(6)), 0);
        assert!(q.is_empty(), "stale entries are still drained");
    }

    #[test]
    fn infinite_texp_r_patches_never_expire() {
        let r = rel(&[(1, 0)]);
        let s = rel(&[(1, 2)]);
        let mut result = ops::difference(&r, &s, Time::ZERO).unwrap();
        let mut q = PatchQueue::from_critical(ops::critical_tuples(&r, &s, Time::ZERO));
        q.apply_due(&mut result, t(2));
        assert_eq!(result.texp(&tuple![1]), Some(Time::INFINITY));
    }

    #[test]
    fn queue_size_is_bounded_by_intersection() {
        let r = rel(&[(1, 10), (2, 10), (3, 10)]);
        let s = rel(&[(2, 5), (3, 20), (4, 1)]);
        // Critical: only x=2 (10 > 5). Queue ≤ |R ∩ S| = 2.
        let q = PatchQueue::from_critical(ops::critical_tuples(&r, &s, Time::ZERO));
        assert_eq!(q.len(), 1);
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
        let due = q.drain_due(t(5));
        assert_eq!(due[0].tuple, tuple![1], "FIFO among equal times");
        assert_eq!(due[1].tuple, tuple![2]);
    }
}
