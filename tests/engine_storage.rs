//! Integration tests across the engine and storage layers: the engine must
//! behave identically regardless of which expiration index backs its
//! tables, eager and lazy removal must be observationally equivalent for
//! reads, a randomised workload is checked against a simple model, and a
//! read over the live tables at `τ` equals the same read over a copy taken
//! at `τ` (snapshot reducibility).

mod common;

use common::literal;

use exptime::core::aggregate::{AggFunc, AggMode};
use exptime::core::algebra::Expr;
use exptime::core::predicate::{CmpOp, Predicate};
use exptime::core::time::Time;
use exptime::core::tuple;
use exptime::core::tuple::Tuple;
use exptime::core::value::Value;
use exptime::prelude::*;
use exptime::storage::IndexKind;
use proptest::prelude::*;
use std::collections::HashMap;

fn db_with(index: IndexKind, removal: Removal) -> Database {
    let mut db = Database::new(DbConfig {
        index,
        removal,
        ..DbConfig::default()
    });
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("CREATE TABLE u (k INT, v INT)").unwrap();
    db
}

/// Snapshot reducibility (Dignös et al.): visibility is a pure function
/// of `τ`, so the read path — which evaluates over the borrowed tables,
/// copying only the rows that come out — must return exactly what the
/// paper's definitions, applied one operator at a time
/// ([`common::literal`]) to `Database::snapshot`'s copy at the same `τ`,
/// return: the same rows in the same order, the same `texp(e)`, the same
/// validity. One expression per operator family.
fn assert_reducible(db: &mut Database) -> std::result::Result<(), TestCaseError> {
    let (t, u) = (|| Expr::base("t"), || Expr::base("u"));
    let exprs = [
        t().select(Predicate::attr_cmp_const(1, CmpOp::Lt, 2)),
        t().project([0]),
        t().join(u(), Predicate::attr_eq_attr(0, 2)),
        t().project([0]).difference(u().project([0])),
        t().aggregate([1], AggFunc::Count),
        // The shapes the evaluator runs in one pass over the lent rows,
        // and σ over × (run as the Equation 5 join) with the larger input
        // on either side.
        t().select(Predicate::attr_cmp_const(1, CmpOp::Lt, 3))
            .project([1]),
        t().select(Predicate::attr_cmp_const(0, CmpOp::Ge, 2))
            .select(Predicate::attr_cmp_const(1, CmpOp::Lt, 3)),
        t().product(u()).select(Predicate::attr_eq_attr(1, 3)),
        u().product(t()).select(Predicate::attr_eq_attr(1, 3)),
        // GROUP BY as the planner writes it: grouped straight from the
        // lent rows, one output row per group.
        t().select(Predicate::attr_cmp_const(0, CmpOp::Ge, 2))
            .aggregate([1], AggFunc::Sum(0))
            .project([1, 2]),
    ];
    let tau = db.now();
    let copy = db.snapshot();
    for e in &exprs {
        let live = db.query_expr(e)?;
        let reference = literal(e, &copy, tau, AggMode::Exact)?;
        prop_assert_eq!(
            live.rel.iter().collect::<Vec<_>>(),
            reference.rel.iter().collect::<Vec<_>>(),
            "{} at {}",
            e,
            tau
        );
        prop_assert_eq!(live.texp, reference.texp, "texp of {} at {}", e, tau);
        prop_assert_eq!(
            &live.validity,
            &reference.validity,
            "validity of {} at {}",
            e,
            tau
        );
    }
    Ok(())
}

/// One randomly generated workload step.
#[derive(Debug, Clone)]
enum Step {
    Insert { k: i64, v: i64, ttl: u64 },
    Delete { k: i64, v: i64 },
    Renew { k: i64, v: i64, ttl: u64 },
    Tick(u64),
    Query,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0i64..12, 0i64..4, 1u64..30).prop_map(|(k, v, ttl)| Step::Insert { k, v, ttl }),
        1 => (0i64..12, 0i64..4).prop_map(|(k, v)| Step::Delete { k, v }),
        1 => (0i64..12, 0i64..4, 1u64..30).prop_map(|(k, v, ttl)| Step::Renew { k, v, ttl }),
        3 => (1u64..10).prop_map(Step::Tick),
        2 => Just(Step::Query),
    ]
}

/// Reference model: tuple → absolute expiration time.
#[derive(Default)]
struct Model {
    rows: HashMap<Tuple, u64>,
    now: u64,
}

impl Model {
    fn visible(&self) -> Vec<(Tuple, u64)> {
        self.rows
            .iter()
            .filter(|(_, &e)| e > self.now)
            .map(|(t, &e)| (t.clone(), e))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine equals the model for every index kind and removal
    /// policy, on arbitrary interleavings of inserts, deletes, renewals,
    /// ticks, and queries.
    #[test]
    fn engine_matches_model(
        steps in proptest::collection::vec(arb_step(), 1..60),
        index in prop_oneof![Just(IndexKind::Heap), Just(IndexKind::Wheel), Just(IndexKind::Scan)],
        removal in prop_oneof![
            Just(Removal::Eager),
            Just(Removal::Lazy { vacuum_every: 7 }),
            Just(Removal::Lazy { vacuum_every: 1000 }),
        ],
    ) {
        let mut db = db_with(index, removal);
        let mut model = Model::default();
        for step in steps {
            match step {
                Step::Insert { k, v, ttl } | Step::Renew { k, v, ttl } => {
                    let tuple = tuple![k, v];
                    db.insert_ttl("t", tuple.clone(), ttl)?;
                    let new_e = model.now + ttl;
                    // Engine keeps max texp on duplicate insert; the model
                    // mirrors that (only among still-visible rows — an
                    // expired row is semantically absent, so a re-insert
                    // replaces it outright).
                    let e = model.rows.get(&tuple).copied().filter(|&e| e > model.now)
                        .map_or(new_e, |old| old.max(new_e));
                    model.rows.insert(tuple, e);
                }
                Step::Delete { k, v } => {
                    let tuple = tuple![k, v];
                    let visible = model.rows.get(&tuple).is_some_and(|&e| e > model.now);
                    let n = db.execute(&format!("DELETE FROM t WHERE k = {k} AND v = {v}"))?
                        .affected().unwrap();
                    prop_assert_eq!(n == 1, visible, "delete visibility mismatch");
                    model.rows.remove(&tuple);
                }
                Step::Tick(d) => {
                    db.tick(d);
                    model.now += d;
                }
                Step::Query => {
                    let got = db.execute("SELECT * FROM t")?.rows().unwrap().clone();
                    let want = model.visible();
                    prop_assert_eq!(got.len(), want.len(),
                        "cardinality mismatch at t={} under {:?}/{:?}\nengine {:?}\nmodel {:?}",
                        model.now, index, removal, got, want);
                    for (t, e) in &want {
                        prop_assert_eq!(got.texp(t), Some(Time::new(*e)), "texp of {:?}", t);
                    }
                }
            }
        }
    }

    /// Eager and lazy engines produce identical query answers on the same
    /// workload, whichever expiration index backs them; only trigger
    /// timing and physical row counts differ. And each of them, at every
    /// query, is reducible to its own snapshot.
    #[test]
    fn removal_policies_are_observationally_equivalent(
        steps in proptest::collection::vec(arb_step(), 1..50),
        eager_index in prop_oneof![Just(IndexKind::Heap), Just(IndexKind::Wheel), Just(IndexKind::Scan)],
        lazy_index in prop_oneof![Just(IndexKind::Wheel), Just(IndexKind::Heap), Just(IndexKind::Scan)],
    ) {
        let mut eager = db_with(eager_index, Removal::Eager);
        let mut lazy = db_with(lazy_index, Removal::Lazy { vacuum_every: 1000 });
        for step in steps {
            match step {
                Step::Insert { k, v, ttl } | Step::Renew { k, v, ttl } => {
                    eager.insert_ttl("t", tuple![k, v], ttl)?;
                    lazy.insert_ttl("t", tuple![k, v], ttl)?;
                    // Even keys also land in `u`, dying sooner: the
                    // difference `t − u` then has critical tuples.
                    if k % 2 == 0 {
                        eager.insert_ttl("u", tuple![k, v], ttl / 2 + 1)?;
                        lazy.insert_ttl("u", tuple![k, v], ttl / 2 + 1)?;
                    }
                }
                Step::Delete { k, v } => {
                    let a = eager.execute(&format!("DELETE FROM t WHERE k = {k} AND v = {v}"))?;
                    let b = lazy.execute(&format!("DELETE FROM t WHERE k = {k} AND v = {v}"))?;
                    prop_assert_eq!(a.affected(), b.affected());
                }
                Step::Tick(d) => {
                    eager.tick(d);
                    lazy.tick(d);
                }
                Step::Query => {
                    let a = eager.execute("SELECT * FROM t")?.rows().unwrap().clone();
                    let b = lazy.execute("SELECT * FROM t")?.rows().unwrap().clone();
                    prop_assert!(a.set_eq(&b), "eager {:?} vs lazy {:?}", a, b);
                    assert_reducible(&mut eager)?;
                    assert_reducible(&mut lazy)?;
                }
            }
        }
        // Lazy never fires triggers earlier than texp; eager fires exactly.
        for e in eager.triggers().log() {
            prop_assert_eq!(e.fired_at, e.texp);
        }
        for e in lazy.triggers().log() {
            prop_assert!(e.fired_at >= e.texp);
        }
    }
}

#[test]
fn secondary_index_agrees_with_scan_through_engine() {
    let mut indexed = db_with(IndexKind::Heap, Removal::Eager);
    indexed.table_mut("t").unwrap().create_index(1).unwrap();
    let mut plain = db_with(IndexKind::Heap, Removal::Eager);
    for i in 0..500i64 {
        let ttl = 1 + (i as u64 * 7) % 90;
        indexed.insert_ttl("t", tuple![i, i % 16], ttl).unwrap();
        plain.insert_ttl("t", tuple![i, i % 16], ttl).unwrap();
    }
    for tick in [0u64, 30, 60, 95] {
        if Time::new(tick) > indexed.now() {
            indexed.advance_to(Time::new(tick));
            plain.advance_to(Time::new(tick));
        }
        let now = indexed.now();
        for v in 0..16i64 {
            let mut a = indexed
                .table_mut("t")
                .unwrap()
                .select_eq(1, &Value::Int(v), now);
            let mut b = plain
                .table_mut("t")
                .unwrap()
                .select_eq(1, &Value::Int(v), now);
            a.sort_by(|(x, _), (y, _)| x.cmp(y));
            b.sort_by(|(x, _), (y, _)| x.cmp(y));
            assert_eq!(a, b, "v={v} at t={tick}");
        }
    }
    assert!(indexed.table("t").unwrap().stats().index_lookups > 0);
}

#[test]
fn trigger_chain_reinsertion_is_safe() {
    // A trigger that reinserts expired rows (session renewal pattern)
    // must not wedge the engine or fire spuriously.
    let mut db = db_with(IndexKind::Heap, Removal::Eager);
    use std::sync::{Arc, Mutex};
    let renew: Arc<Mutex<Vec<Tuple>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = renew.clone();
    db.on_expire(
        "t",
        "collect",
        Box::new(move |e| {
            sink.lock().unwrap().push(e.tuple.clone());
        }),
    );
    db.insert_ttl("t", tuple![1, 0], 5).unwrap();
    let mut renew_budget = 3;
    for _ in 0..10 {
        db.tick(5);
        let expired: Vec<Tuple> = renew.lock().unwrap().drain(..).collect();
        for t in expired {
            if renew_budget > 0 {
                renew_budget -= 1;
                db.insert_ttl("t", t, 5).unwrap();
            }
        }
    }
    // 1 original + 3 renewals, each expired exactly once.
    assert_eq!(db.stats().expired, 4);
    assert!(db
        .execute("SELECT * FROM t")
        .unwrap()
        .rows()
        .unwrap()
        .is_empty());
}

#[test]
fn update_expiration_reschedules_in_every_index() {
    for index in [IndexKind::Heap, IndexKind::Wheel, IndexKind::Scan] {
        let mut db = db_with(index, Removal::Eager);
        db.insert_ttl("t", tuple![1, 0], 100).unwrap();
        // Shorten, then verify it actually fires at the new time.
        db.execute("UPDATE t SET EXPIRES AT 10 WHERE k = 1")
            .unwrap();
        db.tick(10);
        assert!(
            db.execute("SELECT * FROM t")
                .unwrap()
                .rows()
                .unwrap()
                .is_empty(),
            "{index:?}"
        );
        assert_eq!(db.stats().expired, 1, "{index:?}");
        let log = db.triggers().log();
        assert_eq!(log.len(), 1);
        assert_eq!(
            log[0].texp,
            Time::new(10),
            "{index:?}: fired at the updated time"
        );
    }
}
