//! End-to-end SQL integration tests: full scenarios through the engine,
//! and equivalence between the SQL path (parse → plan → eval) and the
//! direct algebra path.

use exptime::core::aggregate::AggFunc;
use exptime::core::algebra::Expr;
use exptime::core::predicate::Predicate;
use exptime::core::time::Time;
use exptime::core::tuple;
use exptime::prelude::*;

fn fixture() -> Database {
    let mut db = Database::default();
    db.execute_script(
        "CREATE TABLE users    (uid INT, name TEXT);
         CREATE TABLE sessions (sid INT, uid INT);
         CREATE TABLE tickets  (tid INT, uid INT, price FLOAT);
         INSERT INTO users VALUES (1, 'ada'), (2, 'brian'), (3, 'cleo') EXPIRES NEVER;
         INSERT INTO sessions VALUES (10, 1) EXPIRES AT 30;
         INSERT INTO sessions VALUES (11, 2) EXPIRES AT 60;
         INSERT INTO sessions VALUES (12, 1) EXPIRES AT 90;
         INSERT INTO tickets VALUES (100, 1, 9.5), (101, 2, 12.0) EXPIRES AT 45;
         INSERT INTO tickets VALUES (102, 3, 7.25) EXPIRES AT 20;",
    )
    .unwrap();
    db
}

#[test]
fn sql_and_algebra_paths_agree() {
    let mut db = fixture();
    let cases: Vec<(&str, Expr)> = vec![
        (
            "SELECT sid FROM sessions WHERE uid = 1",
            Expr::base("sessions")
                .select(Predicate::attr_eq_const(1, 1))
                .project([0]),
        ),
        (
            "SELECT name FROM users JOIN sessions ON users.uid = sessions.uid",
            Expr::base("users")
                .product(Expr::base("sessions"))
                .select(Predicate::attr_eq_attr(0, 3))
                .project([1]),
        ),
        (
            "SELECT uid FROM users EXCEPT SELECT uid FROM sessions",
            Expr::base("users")
                .project([0])
                .difference(Expr::base("sessions").project([1])),
        ),
        (
            "SELECT uid, COUNT(*) FROM sessions GROUP BY uid",
            Expr::base("sessions")
                .aggregate([1], AggFunc::Count)
                .project([1, 2]),
        ),
    ];
    for tick in [0u64, 25, 50, 95] {
        if Time::new(tick) > db.now() {
            db.advance_to(Time::new(tick));
        }
        for (sql, expr) in &cases {
            let via_sql = db.execute(sql).unwrap().rows().unwrap().clone();
            let via_algebra = db.query_expr(expr).unwrap().rel;
            assert!(
                via_sql.set_eq(&via_algebra),
                "paths diverge at t={tick} for {sql}:\n{via_sql:?}\nvs {via_algebra:?}"
            );
        }
    }
}

#[test]
fn session_lifecycle_scenario() {
    let mut db = fixture();
    // Active users now: 1 and 2.
    let active = db
        .execute("SELECT name FROM users JOIN sessions ON users.uid = sessions.uid")
        .unwrap();
    let names: Vec<String> = active
        .rows()
        .unwrap()
        .iter()
        .map(|(t, _)| t.attr(0).as_str().unwrap().to_string())
        .collect();
    assert!(names.contains(&"ada".to_string()) && names.contains(&"brian".to_string()));
    assert!(!names.contains(&"cleo".to_string()));

    // At 60 brian's session is gone, ada's second one remains.
    db.advance_to(Time::new(60));
    let active = db
        .execute("SELECT uid FROM sessions")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(active.len(), 1);
    assert!(active.contains(&tuple![1]));

    // Users with no session: brian and cleo.
    let idle = db
        .execute("SELECT uid FROM users EXCEPT SELECT uid FROM sessions")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(idle.len(), 2);
    assert!(idle.contains(&tuple![2]) && idle.contains(&tuple![3]));
}

/// `SUM` over an INT column is integer arithmetic: 2^53 + 1 is not an
/// `f64`, and a total past `i64` saturates instead of wrapping.
#[test]
fn sum_over_ints_is_exact() {
    let mut db = Database::default();
    db.execute("CREATE TABLE n (g INT, v INT)").unwrap();
    db.execute("INSERT INTO n VALUES (1, 9007199254740993)")
        .unwrap();
    db.execute("INSERT INTO n VALUES (2, 9223372036854775807), (2, 1), (3, 9007199254740992), (3, 1), (3, -2)")
        .unwrap();
    let sums = db
        .execute("SELECT g, SUM(v) FROM n GROUP BY g")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    let got: Vec<(i64, i64)> = sums
        .iter()
        .map(|(t, _)| (t.attr(0).as_int().unwrap(), t.attr(1).as_int().unwrap()))
        .collect();
    assert_eq!(
        got,
        [
            (1, 9_007_199_254_740_993),
            (2, i64::MAX),
            (3, 9_007_199_254_740_991)
        ]
    );
}

#[test]
fn aggregates_over_floats() {
    let mut db = fixture();
    let avg = db
        .execute("SELECT AVG(price) FROM tickets")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(avg.len(), 1);
    let v = avg.iter().next().unwrap().0.attr(0).as_float().unwrap();
    assert!((v - (9.5 + 12.0 + 7.25) / 3.0).abs() < 1e-9);

    // After the cheap ticket expires, the average shifts.
    db.advance_to(Time::new(20));
    let avg = db
        .execute("SELECT AVG(price) FROM tickets")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    let v = avg.iter().next().unwrap().0.attr(0).as_float().unwrap();
    assert!((v - (9.5 + 12.0) / 2.0).abs() < 1e-9);

    for (sql, expect) in [
        ("SELECT MIN(price) FROM tickets", 9.5),
        ("SELECT MAX(price) FROM tickets", 12.0),
        ("SELECT SUM(price) FROM tickets", 21.5),
    ] {
        let r = db.execute(sql).unwrap().rows().unwrap().clone();
        let got = r.iter().next().unwrap().0.attr(0).as_float().unwrap();
        assert!((got - expect).abs() < 1e-9, "{sql}: {got}");
    }
}

#[test]
fn three_way_set_operations() {
    let mut db = Database::default();
    db.execute_script(
        "CREATE TABLE a (x INT);
         CREATE TABLE b (x INT);
         CREATE TABLE c (x INT);
         INSERT INTO a VALUES (1), (2), (3), (4) EXPIRES AT 100;
         INSERT INTO b VALUES (2), (3) EXPIRES AT 100;
         INSERT INTO c VALUES (3), (4), (5) EXPIRES AT 100;",
    )
    .unwrap();
    let r = db
        .execute("SELECT x FROM a EXCEPT SELECT x FROM b INTERSECT SELECT x FROM c")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    // Left-associated: (a − b) ∩ c = {1, 4} ∩ {3, 4, 5} = {4}.
    assert_eq!(r.len(), 1);
    assert!(r.contains(&tuple![4]));
    let u = db
        .execute("SELECT x FROM b UNION SELECT x FROM c")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(u.len(), 4);
}

#[test]
fn union_texp_is_max_through_sql() {
    let mut db = Database::default();
    db.execute_script(
        "CREATE TABLE a (x INT);
         CREATE TABLE b (x INT);
         INSERT INTO a VALUES (7) EXPIRES AT 10;
         INSERT INTO b VALUES (7) EXPIRES AT 20;",
    )
    .unwrap();
    let r = db
        .execute("SELECT x FROM a UNION SELECT x FROM b")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(r.texp(&tuple![7]), Some(Time::new(20)), "Eq. 4: max");
    // And it survives past a's copy.
    db.advance_to(Time::new(15));
    let r = db
        .execute("SELECT x FROM a UNION SELECT x FROM b")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert!(r.contains(&tuple![7]));
}

#[test]
fn views_through_sql_track_updates_and_expiry() {
    let mut db = fixture();
    db.execute(
        "CREATE MATERIALIZED VIEW by_user AS SELECT uid, COUNT(*) FROM sessions GROUP BY uid",
    )
    .unwrap();
    let v = db.read_view("by_user").unwrap();
    assert!(v.contains(&tuple![1, 2]) && v.contains(&tuple![2, 1]));

    // Insert (an update to base data) must be reflected on next read.
    db.execute("INSERT INTO sessions VALUES (13, 3) EXPIRES AT 70")
        .unwrap();
    let v = db.read_view("by_user").unwrap();
    assert!(v.contains(&tuple![3, 1]), "{v:?}");

    // Expiration alone must also be reflected (via the paper's machinery).
    db.advance_to(Time::new(30));
    let v = db.read_view("by_user").unwrap();
    assert!(v.contains(&tuple![1, 1]), "ada down to one session: {v:?}");

    // Explicit delete is an update too.
    db.execute("DELETE FROM sessions WHERE uid = 2").unwrap();
    let v = db.read_view("by_user").unwrap();
    assert!(!v
        .iter()
        .any(|(t, _)| t.attr(0) == &exptime::core::value::Value::Int(2)));
}

#[test]
fn errors_are_reported_not_panicked() {
    let mut db = fixture();
    for bad in [
        "SELECT nope FROM users",
        "SELECT * FROM ghosts",
        "SELECT uid FROM users EXCEPT SELECT name FROM users", // type mismatch
        "INSERT INTO users VALUES (1)",                        // arity
        "INSERT INTO users VALUES ('x', 'y')",                 // type
        "SELECT uid, COUNT(*) FROM sessions",                  // missing GROUP BY
        "CREATE TABLE users (uid INT)",                        // duplicate
    ] {
        assert!(db.execute(bad).is_err(), "should fail: {bad}");
    }
    // The database remains usable after errors.
    assert_eq!(
        db.execute("SELECT * FROM users")
            .unwrap()
            .rows()
            .unwrap()
            .len(),
        3
    );
}

#[test]
fn comparison_operators_through_sql() {
    let mut db = fixture();
    for (sql, expect) in [
        ("SELECT sid FROM sessions WHERE sid >= 11", 2),
        ("SELECT sid FROM sessions WHERE sid > 11", 1),
        ("SELECT sid FROM sessions WHERE sid <= 10", 1),
        ("SELECT sid FROM sessions WHERE sid <> 11", 2),
        ("SELECT sid FROM sessions WHERE NOT sid = 11", 2),
        ("SELECT sid FROM sessions WHERE sid = 10 OR sid = 12", 2),
        ("SELECT sid FROM sessions WHERE sid = 10 AND uid = 1", 1),
        ("SELECT sid FROM sessions WHERE sid = 10 AND uid = 2", 0),
    ] {
        let n = db.execute(sql).unwrap().rows().unwrap().len();
        assert_eq!(n, expect, "{sql}");
    }
}

/// An equality between an INT and a FLOAT column compares numerically
/// (`2 = 2.0`), in a join condition as in a `WHERE`, whichever way the
/// join is planned and evaluated.
#[test]
fn join_on_int_and_float_columns_compares_numerically() {
    for optimize in [false, true] {
        let mut db = Database::new(DbConfig {
            optimize,
            ..DbConfig::default()
        });
        db.execute_script(
            "CREATE TABLE a (k INT, v INT);
             CREATE TABLE b (x FLOAT, w INT);
             INSERT INTO a VALUES (2, 10), (1, 11), (3, 12) EXPIRES AT 50;
             INSERT INTO b VALUES (1.0, 20), (2.0, 21), (2.5, 22), (2.0, 23) EXPIRES AT 40;",
        )
        .unwrap();
        let want = [
            (tuple![2, 10, 2.0, 21], Time::new(40)),
            (tuple![2, 10, 2.0, 23], Time::new(40)),
            (tuple![1, 11, 1.0, 20], Time::new(40)),
        ];
        for sql in [
            "SELECT * FROM a JOIN b ON a.k = b.x",
            "SELECT * FROM a, b WHERE a.k = b.x",
            "SELECT * FROM a JOIN b ON b.x = a.k",
        ] {
            let got = db.execute(sql).unwrap().rows().unwrap().clone();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                want.iter().map(|(t, e)| (t, *e)).collect::<Vec<_>>(),
                "{sql} (optimize={optimize})"
            );
        }
        let n = db
            .execute("SELECT * FROM a JOIN b ON a.k = b.x AND a.v < b.w AND b.w <> 21")
            .unwrap()
            .rows()
            .unwrap()
            .len();
        assert_eq!(n, 2, "residual conjuncts (optimize={optimize})");
    }
}

#[test]
fn expires_in_is_relative_to_statement_time() {
    let mut db = Database::default();
    db.execute("CREATE TABLE t (x INT)").unwrap();
    db.advance_to(Time::new(40));
    db.execute("INSERT INTO t VALUES (1) EXPIRES IN 10 TICKS")
        .unwrap();
    let rel = db
        .execute("SELECT * FROM t")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(rel.texp(&tuple![1]), Some(Time::new(50)));
    db.advance_to(Time::new(50));
    assert!(db
        .execute("SELECT * FROM t")
        .unwrap()
        .rows()
        .unwrap()
        .is_empty());
}

#[test]
fn multi_statement_script_reports_last_result() {
    let mut db = Database::default();
    let r = db
        .execute_script(
            "CREATE TABLE t (x INT);
             INSERT INTO t VALUES (1), (2) EXPIRES AT 9;
             SELECT * FROM t;",
        )
        .unwrap();
    assert_eq!(r.rows().unwrap().len(), 2);
    // A failing middle statement stops the script.
    let err = db.execute_script("INSERT INTO t VALUES (3) EXPIRES AT 9; SELECT * FROM ghosts; INSERT INTO t VALUES (4) EXPIRES AT 9;");
    assert!(err.is_err());
    assert_eq!(
        db.execute("SELECT * FROM t").unwrap().rows().unwrap().len(),
        3,
        "statements before the failure applied; after did not"
    );
}

#[test]
fn multi_aggregate_queries() {
    let mut db = fixture();
    // Two aggregates side by side, grouped.
    let r = db
        .execute("SELECT uid, COUNT(*), MIN(sid) FROM sessions GROUP BY uid")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(r.len(), 2);
    assert!(r.contains(&tuple![1, 2, 10]), "{r:?}");
    assert!(r.contains(&tuple![2, 1, 11]), "{r:?}");

    // Ungrouped multi-aggregate (single global partition).
    let r = db
        .execute("SELECT COUNT(*), MAX(sid), MIN(sid) FROM sessions")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(r.len(), 1);
    assert!(r.contains(&tuple![3, 12, 10]), "{r:?}");

    // Expiration flows through: at 30 ada's first session is gone.
    db.advance_to(Time::new(30));
    let r = db
        .execute("SELECT uid, COUNT(*), MIN(sid) FROM sessions GROUP BY uid")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert!(r.contains(&tuple![1, 1, 12]), "{r:?}");
    assert!(r.contains(&tuple![2, 1, 11]), "{r:?}");
}

#[test]
fn having_filters_groups() {
    let mut db = fixture();
    // Users with more than one session.
    let r = db
        .execute("SELECT uid, COUNT(*) FROM sessions GROUP BY uid HAVING COUNT(*) > 1")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(r.len(), 1);
    assert!(r.contains(&tuple![1, 2]), "{r:?}");

    // HAVING over an aggregate NOT in the SELECT list.
    let r = db
        .execute("SELECT uid FROM sessions GROUP BY uid HAVING MIN(sid) >= 11")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(r.len(), 1);
    assert!(r.contains(&tuple![2]), "{r:?}");

    // HAVING referencing a group column, combined with an aggregate.
    let r = db
        .execute(
            "SELECT uid, COUNT(*) FROM sessions GROUP BY uid \
             HAVING uid = 1 AND COUNT(*) >= 2",
        )
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(r.len(), 1);

    // Expiration flows through HAVING: ada drops to one session at 30.
    db.advance_to(Time::new(30));
    let r = db
        .execute("SELECT uid, COUNT(*) FROM sessions GROUP BY uid HAVING COUNT(*) > 1")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert!(r.is_empty(), "{r:?}");

    // Errors: aggregates in WHERE; non-grouped columns in HAVING.
    assert!(db
        .execute("SELECT uid FROM sessions WHERE COUNT(*) > 1 GROUP BY uid")
        .is_err());
    assert!(db
        .execute("SELECT uid, COUNT(*) FROM sessions GROUP BY uid HAVING sid = 10")
        .is_err());
}

#[test]
fn order_by_and_limit() {
    let mut db = fixture();
    let r = db
        .execute("SELECT sid, uid FROM sessions ORDER BY sid DESC")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    let sids: Vec<i64> = r.iter().map(|(t, _)| t.attr(0).as_int().unwrap()).collect();
    assert_eq!(sids, vec![12, 11, 10]);

    let r = db
        .execute("SELECT sid, uid FROM sessions ORDER BY uid, sid DESC LIMIT 2")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    let rows: Vec<(i64, i64)> = r
        .iter()
        .map(|(t, _)| (t.attr(0).as_int().unwrap(), t.attr(1).as_int().unwrap()))
        .collect();
    assert_eq!(
        rows,
        vec![(12, 1), (10, 1)],
        "uid asc, sid desc within ties"
    );

    // LIMIT 0 and LIMIT beyond cardinality.
    assert!(db
        .execute("SELECT sid FROM sessions LIMIT 0")
        .unwrap()
        .rows()
        .unwrap()
        .is_empty());
    assert_eq!(
        db.execute("SELECT sid FROM sessions LIMIT 99")
            .unwrap()
            .rows()
            .unwrap()
            .len(),
        3
    );

    // ORDER BY applies after compounds, to the final result.
    let r = db
        .execute("SELECT uid FROM users EXCEPT SELECT uid FROM sessions ORDER BY uid DESC LIMIT 1")
        .unwrap()
        .rows()
        .unwrap()
        .clone();
    assert_eq!(r.len(), 1);
    assert!(r.contains(&tuple![3]));

    // Errors: unknown / qualified order columns.
    assert!(db
        .execute("SELECT sid FROM sessions ORDER BY nope")
        .is_err());
    assert!(db
        .execute("SELECT sid FROM sessions ORDER BY sessions.sid")
        .is_err());
}

#[test]
fn sql_figures_roundtrip_against_bench_module() {
    // The figure regeneration module must keep matching the paper.
    let f1 = exptime_bench::figures::fig1();
    assert!(f1.contains("⟨1, 25⟩") && f1.contains("15"));
    let t2 = exptime_bench::figures::table2();
    assert!(t2.contains("texp(e) = 6"));
}
