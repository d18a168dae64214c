//! Full-scan expiration "index": the baseline without any index.
//!
//! `O(1)` insert, `O(n)` per [`ExpirationIndex::pop_due`] and
//! [`ExpirationIndex::next_expiration`]. This is what a database without
//! expiration-time support effectively does when an administrator's cleanup
//! job periodically deletes stale rows — the baseline criterion's
//! `expiry/*` benches measure the indexes against.

use super::ExpirationIndex;
use crate::heap::RowId;
use exptime_core::time::Time;

/// Unordered list; everything is a scan.
#[derive(Debug, Default)]
pub struct ScanIndex {
    rows: Vec<(RowId, Time)>,
}

impl ScanIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        ScanIndex::default()
    }
}

impl ExpirationIndex for ScanIndex {
    fn insert(&mut self, id: RowId, texp: Time) {
        self.rows.push((id, texp));
    }

    fn remove(&mut self, id: RowId, texp: Time) {
        if let Some(i) = self.rows.iter().position(|&(r, e)| r == id && e == texp) {
            self.rows.swap_remove(i);
        }
    }

    fn pop_due(&mut self, tau: Time) -> Vec<RowId> {
        let mut due = Vec::new();
        self.rows.retain(|&(id, e)| {
            if e <= tau {
                due.push(id);
                false
            } else {
                true
            }
        });
        due
    }

    fn next_expiration(&mut self) -> Option<Time> {
        self.rows
            .iter()
            .map(|&(_, e)| e)
            .filter(|e| e.is_finite())
            .min()
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn name(&self) -> &'static str {
        "scan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expiry::conformance;

    #[test]
    fn conformance_basic_pop_order() {
        conformance::basic_pop_order(ScanIndex::new());
    }

    #[test]
    fn conformance_exactly_once() {
        conformance::exactly_once(ScanIndex::new());
    }

    #[test]
    fn conformance_removal() {
        conformance::removal(ScanIndex::new());
    }

    #[test]
    fn conformance_boundary_semantics() {
        conformance::boundary_semantics(ScanIndex::new());
    }

    #[test]
    fn conformance_sparse_time_jumps() {
        conformance::sparse_time_jumps(ScanIndex::new());
    }

    #[test]
    fn conformance_interleaved() {
        conformance::interleaved_inserts_and_pops(ScanIndex::new());
    }

    #[test]
    fn conformance_randomised() {
        for seed in 1..=5 {
            conformance::randomised_against_model(ScanIndex::new(), seed);
        }
    }
}
