//! An in-memory ordered secondary index: attribute value → row ids.
//!
//! Tables index attribute columns so selections like `deg = 25` or range
//! predicates avoid full scans. The index is a multimap over the standard
//! library's B-tree: each key maps to a postings list of [`RowId`]s, so
//! duplicate keys are supported.
//!
//! Keys are [`Value`]s compared with [`Value::total_cmp`], so mixed-type
//! columns are handled deterministically (and `1` and `1.0` are one key).

use crate::heap::RowId;
use exptime_core::value::Value;
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};

/// A [`Value`] ordered by [`Value::total_cmp`].
#[derive(Debug, Clone)]
struct Key(Value);

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Key {}

/// An ordered multimap from [`Value`] to [`RowId`].
#[derive(Debug, Clone, Default)]
pub struct BTreeIndex {
    postings: BTreeMap<Key, Vec<RowId>>,
    entries: usize,
}

impl BTreeIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        BTreeIndex::default()
    }

    /// Total `(key, RowId)` entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn key_count(&self) -> usize {
        self.postings.len()
    }

    /// Inserts `(key, id)`. Duplicate `(key, id)` pairs are tolerated but
    /// stored once.
    pub fn insert(&mut self, key: &Value, id: RowId) {
        let list = self.postings.entry(Key(key.clone())).or_default();
        if !list.contains(&id) {
            list.push(id);
            self.entries += 1;
        }
    }

    /// Removes `(key, id)`; returns whether it was present.
    pub fn remove(&mut self, key: &Value, id: RowId) -> bool {
        let Entry::Occupied(mut list) = self.postings.entry(Key(key.clone())) else {
            return false;
        };
        let Some(pos) = list.get().iter().position(|&r| r == id) else {
            return false;
        };
        list.get_mut().swap_remove(pos);
        if list.get().is_empty() {
            list.remove();
        }
        self.entries -= 1;
        true
    }

    /// Point lookup: the row ids stored under `key`.
    #[must_use]
    pub fn get(&self, key: &Value) -> &[RowId] {
        self.postings
            .get(&Key(key.clone()))
            .map_or(&[], Vec::as_slice)
    }

    /// Range scan: all `(key, id)` pairs with `lo ≤ key ≤ hi` (inclusive
    /// bounds; pass the same value twice for a point scan), in key order.
    /// Empty when `lo > hi`.
    #[must_use]
    pub fn range(&self, lo: &Value, hi: &Value) -> Vec<(Value, RowId)> {
        let (lo, hi) = (Key(lo.clone()), Key(hi.clone()));
        if lo > hi {
            // `BTreeMap::range` panics on an inverted range.
            return Vec::new();
        }
        let mut out = Vec::new();
        for (key, ids) in self.postings.range(lo..=hi) {
            out.extend(ids.iter().map(|&id| (key.0.clone(), id)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::RowHeap;
    use exptime_core::time::Time;
    use exptime_core::tuple;

    fn ids(n: usize) -> Vec<RowId> {
        let mut h = RowHeap::new();
        (0..n)
            .map(|i| h.insert(tuple![i as i64], Time::INFINITY))
            .collect()
    }

    #[test]
    fn insert_and_point_lookup() {
        let ids = ids(3);
        let mut t = BTreeIndex::new();
        t.insert(&Value::Int(5), ids[0]);
        t.insert(&Value::Int(3), ids[1]);
        t.insert(&Value::Int(5), ids[2]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.key_count(), 2);
        let mut got = t.get(&Value::Int(5)).to_vec();
        got.sort();
        let mut want = vec![ids[0], ids[2]];
        want.sort();
        assert_eq!(got, want);
        assert!(t.get(&Value::Int(99)).is_empty());
        // Duplicate (key, id) stored once.
        t.insert(&Value::Int(5), ids[0]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn range_scans() {
        let ids = ids(100);
        let mut t = BTreeIndex::new();
        for (i, &id) in ids.iter().enumerate() {
            t.insert(&Value::Int(i as i64), id);
        }
        let r = t.range(&Value::Int(10), &Value::Int(19));
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, Value::Int(10));
        assert_eq!(r[9].0, Value::Int(19));
        // Keys come back ordered.
        assert!(r.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_le()));
        // Point range.
        assert_eq!(t.range(&Value::Int(42), &Value::Int(42)).len(), 1);
        // Empty range.
        assert!(t.range(&Value::Int(200), &Value::Int(300)).is_empty());
        // Inverted range.
        assert!(t.range(&Value::Int(19), &Value::Int(10)).is_empty());
        // Range covering everything.
        assert_eq!(t.range(&Value::Int(-1), &Value::Int(1000)).len(), 100);
    }

    #[test]
    fn removal_drops_entries_then_keys() {
        let ids = ids(500);
        let mut t = BTreeIndex::new();
        for (i, &id) in ids.iter().enumerate() {
            t.insert(&Value::Int((i % 37) as i64), id);
        }
        assert_eq!(t.key_count(), 37);
        for (i, &id) in ids.iter().enumerate().skip(37) {
            assert!(t.remove(&Value::Int((i % 37) as i64), id));
        }
        // One survivor per key, still found.
        assert_eq!((t.len(), t.key_count()), (37, 37));
        for (i, &id) in ids.iter().enumerate().take(37) {
            assert_eq!(t.get(&Value::Int(i as i64)), &[id]);
        }
        // Removing a missing entry is a no-op, under a live key or not.
        assert!(!t.remove(&Value::Int(0), ids[37]));
        assert!(!t.remove(&Value::Int(99), ids[0]));
        assert_eq!(t.len(), 37);
        for (i, &id) in ids.iter().enumerate().take(37) {
            assert!(t.remove(&Value::Int(i as i64), id));
        }
        assert!(t.is_empty());
        assert_eq!(t.key_count(), 0);
    }

    #[test]
    fn mixed_type_keys_order_deterministically() {
        let ids = ids(5);
        let mut t = BTreeIndex::new();
        t.insert(&Value::str("b"), ids[0]);
        t.insert(&Value::Int(1), ids[1]);
        t.insert(&Value::float(0.5), ids[2]);
        t.insert(&Value::Bool(true), ids[3]);
        // Numbers < strings < bools under total_cmp.
        let all = t.range(&Value::float(f64::NEG_INFINITY), &Value::Bool(true));
        let keys: Vec<Value> = all.into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                Value::float(0.5),
                Value::Int(1),
                Value::str("b"),
                Value::Bool(true)
            ]
        );
        // An int and the float equal to it are one key.
        t.insert(&Value::float(1.0), ids[4]);
        assert_eq!(t.key_count(), 4);
        assert_eq!(t.get(&Value::Int(1)).len(), 2);
    }

    #[test]
    fn randomised_against_model() {
        let pool = ids(4096);
        let mut t = BTreeIndex::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut next = 0usize;
        // The model: every live (key, id) pair, scanned.
        let mut live: Vec<(i64, RowId)> = Vec::new();
        let under = |live: &[(i64, RowId)], lo: i64, hi: i64| {
            let mut ids: Vec<RowId> = live
                .iter()
                .filter(|(k, _)| (lo..=hi).contains(k))
                .map(|&(_, id)| id)
                .collect();
            ids.sort();
            ids
        };
        for step in 0..4000 {
            if rng() % 3 != 0 || live.is_empty() {
                if next >= pool.len() {
                    continue;
                }
                let k = (rng() % 200) as i64;
                let id = pool[next];
                next += 1;
                t.insert(&Value::Int(k), id);
                live.push((k, id));
            } else {
                let i = (rng() as usize) % live.len();
                let (k, id) = live.swap_remove(i);
                assert!(t.remove(&Value::Int(k), id));
            }
            if step % 257 == 0 {
                // Spot-check a few keys and one range.
                for k in [0i64, 50, 199] {
                    let mut got = t.get(&Value::Int(k)).to_vec();
                    got.sort();
                    assert_eq!(got, under(&live, k, k), "key {k} diverged at step {step}");
                }
                let mut got: Vec<RowId> = t
                    .range(&Value::Int(40), &Value::Int(60))
                    .into_iter()
                    .map(|(_, id)| id)
                    .collect();
                got.sort();
                assert_eq!(got, under(&live, 40, 60), "range diverged at step {step}");
            }
        }
        assert_eq!(t.len(), live.len());
        // Full range must equal the model.
        let all = t.range(&Value::Int(i64::MIN), &Value::Int(i64::MAX));
        assert_eq!(all.len(), live.len());
    }
}
