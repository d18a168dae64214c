//! Property tests for the storage substrate: the relation's internal
//! index, the row heap, and the table stay coherent with simple models
//! under arbitrary operation interleavings.

mod common;

use common::schema2;
use exptime::core::relation::{DuplicatePolicy, Relation};
use exptime::core::time::Time;
use exptime::core::tuple;
use exptime::core::tuple::Tuple;
use exptime::core::value::Value;
use exptime::storage::{IndexKind, RowHeap, Table};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum RelOp {
    InsertMax {
        k: i64,
        e: u64,
    },
    InsertReplace {
        k: i64,
        e: u64,
    },
    Remove {
        k: i64,
    },
    Expire {
        tau: u64,
    },
    /// Continue with the snapshot `expτ`.
    Exp {
        tau: u64,
    },
    /// Continue with a copy, dropping the original.
    Clone,
    Sort,
    /// Check every tuple against the model; until one of these (or a
    /// deduplicating insert or a remove) looks a tuple up, the index is
    /// not built, so the other ops also run against an unbuilt index.
    Check,
}

fn arb_rel_op() -> impl Strategy<Value = RelOp> {
    prop_oneof![
        3 => (0i64..10, 1u64..40).prop_map(|(k, e)| RelOp::InsertMax { k, e }),
        1 => (0i64..10, 1u64..40).prop_map(|(k, e)| RelOp::InsertReplace { k, e }),
        1 => (0i64..10).prop_map(|k| RelOp::Remove { k }),
        1 => (0u64..40).prop_map(|tau| RelOp::Expire { tau }),
        1 => (0u64..40).prop_map(|tau| RelOp::Exp { tau }),
        1 => Just(RelOp::Clone),
        1 => Just(RelOp::Sort),
        2 => Just(RelOp::Check),
    ]
}

/// Every tuple of the model is in the relation with its texp, and the
/// relation holds no other.
fn check_against_model(rel: &Relation, model: &HashMap<i64, u64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(rel.len(), model.len());
    for (&k, &e) in model {
        prop_assert_eq!(rel.texp(&tuple![k, 0]), Some(Time::new(e)), "key {}", k);
    }
    for (t, e) in rel.iter() {
        let k = t.attr(0).as_int().unwrap();
        prop_assert_eq!(model.get(&k).copied(), e.finite(), "stray key {}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The relation's tuple index stays coherent with a HashMap model
    /// under inserts (both policies), removals, eager expiry, snapshots,
    /// copies and sorts, whether or not a lookup has built it yet.
    #[test]
    fn relation_index_coherence(ops in proptest::collection::vec(arb_rel_op(), 1..60)) {
        let mut rel = Relation::new(schema2());
        let mut model: HashMap<i64, u64> = HashMap::new();
        for op in ops {
            match op {
                RelOp::InsertMax { k, e } => {
                    rel.insert(tuple![k, 0], Time::new(e)).unwrap();
                    let cur = model.entry(k).or_insert(e);
                    *cur = (*cur).max(e);
                }
                RelOp::InsertReplace { k, e } => {
                    rel.insert_with(tuple![k, 0], Time::new(e), DuplicatePolicy::Replace)
                        .unwrap();
                    model.insert(k, e);
                }
                RelOp::Remove { k } => {
                    let removed = rel.remove(&tuple![k, 0]);
                    prop_assert_eq!(
                        removed.map(|t| t.finite().unwrap()),
                        model.remove(&k)
                    );
                }
                RelOp::Expire { tau } => {
                    let removed = rel.expire(Time::new(tau));
                    let expect: Vec<i64> = model
                        .iter()
                        .filter(|(_, &e)| e <= tau)
                        .map(|(&k, _)| k)
                        .collect();
                    prop_assert_eq!(removed.len(), expect.len());
                    model.retain(|_, &mut e| e > tau);
                }
                RelOp::Exp { tau } => {
                    rel = rel.exp(Time::new(tau));
                    model.retain(|_, &mut e| e > tau);
                }
                RelOp::Clone => rel = rel.clone(),
                RelOp::Sort => rel.sort_by_tuple(),
                RelOp::Check => check_against_model(&rel, &model)?,
            }
            prop_assert_eq!(rel.len(), model.len());
        }
        // The ops after the last drawn check still meet the model.
        check_against_model(&rel, &model)?;
    }

    /// Row-heap slots: ids stay valid across deletions and reuse; stale
    /// ids never resolve.
    #[test]
    fn row_heap_generation_safety(ops in proptest::collection::vec(
        prop_oneof![2 => Just(true), 1 => Just(false)], 1..80
    )) {
        let mut heap = RowHeap::new();
        let mut live: Vec<(exptime::storage::RowId, i64)> = Vec::new();
        let mut dead: Vec<exptime::storage::RowId> = Vec::new();
        let mut next = 0i64;
        for insert in ops {
            if insert || live.is_empty() {
                let id = heap.insert(tuple![next], Time::INFINITY);
                live.push((id, next));
                next += 1;
            } else {
                let (id, _) = live.swap_remove(next as usize % live.len());
                prop_assert!(heap.delete(id).is_some());
                dead.push(id);
            }
            prop_assert_eq!(heap.len(), live.len());
            for &(id, v) in &live {
                prop_assert_eq!(
                    heap.get(id).map(|(t, _)| t.attr(0).as_int().unwrap()),
                    Some(v)
                );
            }
            for &id in &dead {
                prop_assert!(heap.get(id).is_none(), "stale id resolved");
            }
        }
    }

    /// The full table (heap + expiry index + primary + secondary index)
    /// agrees with a model across inserts, deletes, texp updates, and
    /// expiry, for every expiration-index kind.
    #[test]
    fn table_model_coherence(
        ops in proptest::collection::vec(
            prop_oneof![
                3 => (0i64..12, 1u64..50).prop_map(|(k, e)| (0u8, k, e)),
                1 => (0i64..12, 1u64..50).prop_map(|(k, e)| (1u8, k, e)),
                1 => (0i64..12,).prop_map(|(k,)| (2u8, k, 0)),
                2 => (1u64..12,).prop_map(|(d,)| (3u8, 0, d)),
            ],
            1..50
        ),
        kind in prop_oneof![Just(IndexKind::Heap), Just(IndexKind::Wheel), Just(IndexKind::Scan)],
    ) {
        let mut table = Table::new("t", schema2(), kind);
        table.create_index(1).unwrap();
        let mut model: HashMap<Tuple, u64> = HashMap::new();
        let mut now = 0u64;
        for (op, k, arg) in ops {
            let t = tuple![k, k % 3];
            match op {
                0 => {
                    // Insert with TTL: duplicates keep max.
                    let e = now + arg;
                    table.insert(t.clone(), Time::new(e), Time::new(now)).unwrap();
                    let cur = model.entry(t).or_insert(e);
                    *cur = (*cur).max(e);
                }
                1 => {
                    // Update expiration outright.
                    let e = now + arg;
                    let hit = table.update_texp(&t, Time::new(e), Time::new(now)).unwrap();
                    prop_assert_eq!(hit, model.contains_key(&t));
                    if hit {
                        model.insert(t, e);
                    }
                }
                2 => {
                    let removed = table.delete(&t);
                    prop_assert_eq!(removed.is_some(), model.remove(&t).is_some());
                }
                _ => {
                    now += arg;
                    let removed = table.expire_due(Time::new(now));
                    let expect = model.values().filter(|&&e| e <= now).count();
                    prop_assert_eq!(removed.len(), expect, "{:?} at {}", kind, now);
                    model.retain(|_, &mut e| e > now);
                }
            }
            prop_assert_eq!(table.len(), model.len(), "{:?}", kind);
            // Secondary index agrees with the model per value group.
            for v in 0..3i64 {
                let got = table.select_eq(1, &Value::Int(v), Time::new(now)).len();
                let expect = model
                    .iter()
                    .filter(|(t, &e)| t.attr(1) == &Value::Int(v) && e > now)
                    .count();
                prop_assert_eq!(got, expect, "{:?} v={} now={}", kind, v, now);
            }
        }
    }
}
