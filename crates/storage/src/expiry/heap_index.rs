//! Binary min-heap expiration index with lazy deletion.
//!
//! The classic priority-queue realisation of expiration processing:
//! `O(log n)` insert, `O(log n)` amortised per popped row. Removal is lazy —
//! a tombstone set marks `(RowId, texp)` entries dead, and dead entries are
//! discarded when they surface at the heap top (including during
//! [`ExpirationIndex::next_expiration`], which is why that method takes
//! `&mut self`).

use super::ExpirationIndex;
use crate::heap::RowId;
use exptime_core::hash::RowSet;
use exptime_core::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap expiration index.
#[derive(Debug, Default)]
pub struct HeapIndex {
    heap: BinaryHeap<Reverse<(Time, RowId)>>,
    dead: RowSet<(RowId, Time)>,
    /// Live entries (heap minus tombstones), including immortal rows.
    live: usize,
    /// Immortal rows are not heaped (they can never pop); only counted.
    immortal: RowSet<RowId>,
}

impl HeapIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        HeapIndex::default()
    }

    fn skim(&mut self) {
        while let Some(Reverse((e, id))) = self.heap.peek().copied() {
            if self.dead.remove(&(id, e)) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

impl ExpirationIndex for HeapIndex {
    fn insert(&mut self, id: RowId, texp: Time) {
        self.live += 1;
        if texp.is_infinite() {
            self.immortal.insert(id);
        } else {
            self.heap.push(Reverse((texp, id)));
        }
    }

    fn remove(&mut self, id: RowId, texp: Time) {
        if texp.is_infinite() {
            if self.immortal.remove(&id) {
                self.live -= 1;
            }
        } else if self.dead.insert((id, texp)) {
            self.live -= 1;
        }
    }

    fn pop_due(&mut self, tau: Time) -> Vec<RowId> {
        let mut out = Vec::new();
        loop {
            match self.heap.peek().copied() {
                Some(Reverse((e, id))) if e <= tau => {
                    self.heap.pop();
                    if !self.dead.remove(&(id, e)) {
                        out.push(id);
                        self.live -= 1;
                    }
                }
                _ => break,
            }
        }
        out
    }

    fn next_expiration(&mut self) -> Option<Time> {
        self.skim();
        self.heap.peek().map(|Reverse((e, _))| *e)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn name(&self) -> &'static str {
        "heap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expiry::conformance;

    #[test]
    fn conformance_basic_pop_order() {
        conformance::basic_pop_order(HeapIndex::new());
    }

    #[test]
    fn conformance_exactly_once() {
        conformance::exactly_once(HeapIndex::new());
    }

    #[test]
    fn conformance_removal() {
        conformance::removal(HeapIndex::new());
    }

    #[test]
    fn conformance_boundary_semantics() {
        conformance::boundary_semantics(HeapIndex::new());
    }

    #[test]
    fn conformance_sparse_time_jumps() {
        conformance::sparse_time_jumps(HeapIndex::new());
    }

    #[test]
    fn conformance_interleaved() {
        conformance::interleaved_inserts_and_pops(HeapIndex::new());
    }

    #[test]
    fn conformance_randomised() {
        for seed in 1..=5 {
            conformance::randomised_against_model(HeapIndex::new(), seed);
        }
    }

    #[test]
    fn tombstones_do_not_leak_into_next_expiration() {
        let v = conformance::ids(2);
        let mut ix = HeapIndex::new();
        ix.insert(v[0], Time::new(5));
        ix.insert(v[1], Time::new(9));
        ix.remove(v[0], Time::new(5));
        assert_eq!(ix.next_expiration(), Some(Time::new(9)));
        assert_eq!(ix.len(), 1);
    }
}
