//! Hierarchical timing wheel expiration index.
//!
//! The structure behind kernel timers, adapted to expiration times: `L`
//! levels of 64 buckets each, where a bucket at level `l` spans `64^l`
//! ticks. Insertion is `O(1)` (compute the level from the delta to "now",
//! mask out the bucket); advancing time drains whole buckets, and each row
//! cascades through at most `L` buckets over its lifetime, so expiry is
//! `O(1)` amortised per row — the "real-time performance guarantees" the
//! paper's reference \[24\] asks of an expiration-time store.
//!
//! Rows beyond the wheel horizon (`64^L` ticks ≈ 2.8·10¹⁴) sit in an
//! overflow heap; rows with `texp = ∞` are only counted, never scheduled.

use super::ExpirationIndex;
use crate::heap::RowId;
use exptime_core::hash::RowSet;
use exptime_core::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket count per level.
const SLOT_BITS: u32 = 6;
/// Buckets per level.
const SLOTS: u64 = 1 << SLOT_BITS;
/// Number of levels.
const LEVELS: usize = 8;

/// Hierarchical timing wheel.
#[derive(Debug)]
pub struct TimingWheel {
    now: u64,
    levels: Vec<Vec<Vec<(RowId, u64)>>>,
    /// Rows due at or before `now` that were inserted late.
    ready: Vec<(RowId, u64)>,
    /// Rows past the horizon.
    overflow: BinaryHeap<Reverse<(u64, RowId)>>,
    /// Immortal rows (texp = ∞): counted, never scheduled.
    immortal: RowSet<RowId>,
    dead: RowSet<(RowId, Time)>,
    live: usize,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl TimingWheel {
    /// An empty wheel positioned at time 0.
    #[must_use]
    pub fn new() -> Self {
        TimingWheel {
            now: 0,
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
            immortal: RowSet::default(),
            dead: RowSet::default(),
            live: 0,
        }
    }

    /// Level for a delta to now: the unique `l` with
    /// `64^l ≤ delta < 64^(l+1)` (0 for `delta < 64`), or `None` past the
    /// horizon.
    fn level_of(delta: u64) -> Option<usize> {
        if delta < SLOTS {
            return Some(0);
        }
        let bits = 64 - delta.leading_zeros();
        let level = ((bits - 1) / SLOT_BITS) as usize;
        (level < LEVELS).then_some(level)
    }

    fn schedule(&mut self, id: RowId, texp: u64) {
        if texp <= self.now {
            self.ready.push((id, texp));
            return;
        }
        match Self::level_of(texp - self.now) {
            Some(level) => {
                let idx = ((texp >> (SLOT_BITS * level as u32)) & (SLOTS - 1)) as usize;
                self.levels[level][idx].push((id, texp));
            }
            None => self.overflow.push(Reverse((texp, id))),
        }
    }

    fn is_dead(&mut self, id: RowId, texp: u64) -> bool {
        self.dead.remove(&(id, Time::new(texp)))
    }
}

impl ExpirationIndex for TimingWheel {
    fn insert(&mut self, id: RowId, texp: Time) {
        self.live += 1;
        match texp.finite() {
            Some(t) => self.schedule(id, t),
            None => {
                self.immortal.insert(id);
            }
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
        // ∞ is never passed by clocks; clamp defensively.
        let tau = tau.finite().unwrap_or(u64::MAX - 1);
        let mut due = Vec::new();
        // Late-inserted already-due rows.
        for (id, texp) in std::mem::take(&mut self.ready) {
            if self.is_dead(id, texp) {
                continue;
            }
            due.push(id);
            self.live -= 1;
        }
        if tau > self.now {
            let mut pending: Vec<(RowId, u64)> = Vec::new();
            for level in 0..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let start = self.now >> shift;
                let end = tau >> shift;
                // Visit every bucket whose window intersects (now, tau];
                // at most all 64 per level.
                let steps = (end - start).min(SLOTS - 1);
                for g in start..=start + steps {
                    let idx = (g & (SLOTS - 1)) as usize;
                    for (id, texp) in std::mem::take(&mut self.levels[level][idx]) {
                        if self.is_dead(id, texp) {
                            continue;
                        }
                        if texp <= tau {
                            due.push(id);
                            self.live -= 1;
                        } else {
                            pending.push((id, texp));
                        }
                    }
                }
            }
            self.now = tau;
            // Cascade survivors down relative to the new now.
            for (id, texp) in pending {
                self.schedule(id, texp);
            }
            // Overflow rows that became due.
            while let Some(&Reverse((texp, id))) = self.overflow.peek() {
                if texp > tau {
                    break;
                }
                self.overflow.pop();
                if self.is_dead(id, texp) {
                    continue;
                }
                due.push(id);
                self.live -= 1;
            }
        }
        due
    }

    fn next_expiration(&mut self) -> Option<Time> {
        let mut best: Option<u64> = None;
        let consider = |t: u64, best: &mut Option<u64>| {
            *best = Some(best.map_or(t, |b| b.min(t)));
        };
        // Clean tombstoned entries as we scan so they cannot shadow live
        // minima; `dead` lookups need ownership discipline, so retain with
        // a local set check.
        let dead = &self.dead;
        for (id, texp) in &self.ready {
            if !dead.contains(&(*id, Time::new(*texp))) {
                consider(*texp, &mut best);
            }
        }
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let start = self.now >> shift;
            // Buckets in time order; the first non-empty (live) bucket per
            // level bounds that level's minimum.
            for g in start..start + SLOTS {
                let idx = (g & (SLOTS - 1)) as usize;
                let bucket = &self.levels[level][idx];
                let live_min = bucket
                    .iter()
                    .filter(|(id, texp)| !dead.contains(&(*id, Time::new(*texp))))
                    .map(|&(_, texp)| texp)
                    .min();
                if let Some(m) = live_min {
                    consider(m, &mut best);
                    break;
                }
            }
        }
        // Overflow: skim tombstones off the top.
        while let Some(&Reverse((texp, id))) = self.overflow.peek() {
            if self.dead.remove(&(id, Time::new(texp))) {
                self.overflow.pop();
            } else {
                consider(texp, &mut best);
                break;
            }
        }
        best.map(Time::new)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn name(&self) -> &'static str {
        "wheel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expiry::conformance;

    #[test]
    fn conformance_basic_pop_order() {
        conformance::basic_pop_order(TimingWheel::new());
    }

    #[test]
    fn conformance_exactly_once() {
        conformance::exactly_once(TimingWheel::new());
    }

    #[test]
    fn conformance_removal() {
        conformance::removal(TimingWheel::new());
    }

    #[test]
    fn conformance_boundary_semantics() {
        conformance::boundary_semantics(TimingWheel::new());
    }

    #[test]
    fn conformance_sparse_time_jumps() {
        conformance::sparse_time_jumps(TimingWheel::new());
    }

    #[test]
    fn conformance_interleaved() {
        conformance::interleaved_inserts_and_pops(TimingWheel::new());
    }

    #[test]
    fn conformance_randomised() {
        for seed in 1..=10 {
            conformance::randomised_against_model(TimingWheel::new(), seed);
        }
    }

    #[test]
    fn level_of_boundaries() {
        assert_eq!(TimingWheel::level_of(0), Some(0));
        assert_eq!(TimingWheel::level_of(63), Some(0));
        assert_eq!(TimingWheel::level_of(64), Some(1));
        assert_eq!(TimingWheel::level_of(64 * 64 - 1), Some(1));
        assert_eq!(TimingWheel::level_of(64 * 64), Some(2));
        assert_eq!(TimingWheel::level_of(64u64.pow(8) - 1), Some(7));
        assert_eq!(TimingWheel::level_of(64u64.pow(8)), None);
    }

    #[test]
    fn far_future_rows_use_overflow() {
        let v = conformance::ids(2);
        let mut w = TimingWheel::new();
        let far = 64u64.pow(8) + 5;
        w.insert(v[0], Time::new(far));
        w.insert(v[1], Time::new(3));
        assert_eq!(w.next_expiration(), Some(Time::new(3)));
        assert_eq!(w.pop_due(Time::new(3)), vec![v[1]]);
        assert_eq!(w.next_expiration(), Some(Time::new(far)));
        assert_eq!(w.pop_due(Time::new(far)), vec![v[0]]);
        assert!(w.is_empty());
    }

    #[test]
    fn cascade_pulls_items_down_levels() {
        let v = conformance::ids(1);
        let mut w = TimingWheel::new();
        // texp 100: level 1 at insert (delta 100).
        w.insert(v[0], Time::new(100));
        // Advance to 90: item must cascade, not fire.
        assert!(w.pop_due(Time::new(90)).is_empty());
        assert_eq!(w.next_expiration(), Some(Time::new(100)));
        assert_eq!(w.pop_due(Time::new(100)), vec![v[0]]);
    }

    #[test]
    fn late_insert_already_due_fires_on_next_pop() {
        let v = conformance::ids(1);
        let mut w = TimingWheel::new();
        w.pop_due(Time::new(50));
        w.insert(v[0], Time::new(10)); // already past
        assert_eq!(w.next_expiration(), Some(Time::new(10)));
        assert_eq!(w.pop_due(Time::new(50)), vec![v[0]]);
    }
}
