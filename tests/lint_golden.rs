//! Golden tests for the static analyzer: the paper's Figure 3 anomalies
//! must produce exactly the expected diagnostic codes, anchored at the
//! expected byte spans, and the Figure 2 monotonic workload must produce
//! none at all.

use exptime::engine::{Database, DbConfig};
use exptime::lint::{Code, Severity};
use exptime::prelude::Time;

fn figure1_db() -> Database {
    let mut db = Database::new(DbConfig::default());
    db.execute_script(
        "CREATE TABLE pol (uid INT, deg INT);
         CREATE TABLE el (uid INT, deg INT);
         INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
         INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
         INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
         INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
         INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
         INSERT INTO el VALUES (4, 90) EXPIRES AT 2;",
    )
    .unwrap();
    db
}

/// Figure 2's workload is pure monotonic algebra (Theorem 1): selection,
/// projection, join, union, intersection. Zero diagnostics, down to info.
#[test]
fn figure_2_monotonic_workload_is_clean() {
    let db = figure1_db();
    for sql in [
        "SELECT * FROM pol",
        "SELECT uid FROM pol",
        "SELECT uid FROM pol WHERE deg >= 25",
        "SELECT * FROM pol JOIN el ON pol.uid = el.uid",
        "SELECT uid FROM pol UNION SELECT uid FROM el",
        "SELECT uid FROM pol INTERSECT SELECT uid FROM el",
        "SELECT pol.uid FROM pol JOIN el ON pol.uid = el.uid WHERE el.deg > 80",
    ] {
        let r = db.lint(sql).unwrap();
        assert!(r.is_clean(), "{sql}: {:?}", r.diagnostics);
    }
}

/// Figure 3(a): πexp(aggexp(Pol)) — the aggregate sits *under* the
/// projection, and COUNT admits only the empty neutral set (Table 1).
/// Expected: X001 (non-monotonic not at top) then X003 (validity ends at
/// the next change point χ), in ranked order, with X003 anchored at the
/// COUNT(*) call.
#[test]
fn figure_3a_aggregate_under_projection() {
    let db = figure1_db();
    let sql = "SELECT deg, COUNT(*) FROM pol GROUP BY deg";
    let r = db.lint(sql).unwrap();
    assert_eq!(r.codes(), vec![Code::X001, Code::X003]);
    assert_eq!(r.diagnostics[0].severity, Severity::Warning);
    let x003 = &r.diagnostics[1];
    assert_eq!(
        (x003.span.start, x003.span.end),
        (12, 20),
        "span should cover COUNT(*)"
    );
    assert_eq!(&sql[x003.span.start..x003.span.end], "COUNT(*)");
    assert!(x003.message.contains('χ'), "{}", x003.message);
    // The X001 span covers the whole query (the defect is structural).
    let x001 = &r.diagnostics[0];
    assert_eq!((x001.span.start, x001.span.end), (0, sql.len()));
}

/// Figure 3(b): a materialised difference. A critical tuple in El gives
/// the view a *finite* expiration (Table 2 / Eq. 11) — unless Theorem 3
/// patching maintains it. Expected: exactly X002, an error, anchored at
/// the EXCEPT keyword.
#[test]
fn figure_3b_materialized_difference() {
    let db = figure1_db();
    let sql = "SELECT uid FROM pol EXCEPT SELECT uid FROM el";
    let r = db.lint(sql).unwrap();
    assert_eq!(r.codes(), vec![Code::X002]);
    let d = &r.diagnostics[0];
    assert_eq!(d.severity, Severity::Error);
    assert_eq!((d.span.start, d.span.end), (20, 26));
    assert_eq!(&sql[d.span.start..d.span.end], "EXCEPT");
    assert!(
        d.suggestion.as_deref().unwrap().contains("Theorem 3"),
        "{:?}",
        d.suggestion
    );
}

/// X002 describes what the engine's views do: a materialised
/// `pol EXCEPT el` carries it, and each critical tuple of `el` that
/// expires (at 10 and at 12) costs the view a recomputation, not a patch.
#[test]
fn x002_agrees_with_the_views_recomputations() {
    let mut db = Database::new(DbConfig::default());
    db.execute_script(
        "CREATE TABLE pol (uid INT, deg INT);
         CREATE TABLE el (uid INT, deg INT);
         INSERT INTO pol VALUES (1, 25), (2, 25) EXPIRES AT 20;
         INSERT INTO el VALUES (1, 75) EXPIRES AT 10;
         INSERT INTO el VALUES (2, 85) EXPIRES AT 12;
         CREATE MATERIALIZED VIEW d AS SELECT uid FROM pol EXCEPT SELECT uid FROM el;",
    )
    .unwrap();
    assert_eq!(db.view_diagnostics("d").unwrap().codes(), vec![Code::X002]);
    assert!(db.read_view("d").unwrap().is_empty());
    for (at, live) in [(10, 1), (12, 2)] {
        db.advance_to(Time::new(at));
        assert_eq!(db.read_view("d").unwrap().len(), live, "at {at}");
    }
    let stats = db.view_stats("d").unwrap();
    assert_eq!((stats.recomputations, stats.patches_applied), (2, 0));
}

/// Both anomalies stacked: aggregate over a difference. Every code keeps
/// its anchor, and the rendered output carries carets into the source.
#[test]
fn stacked_anomalies_render_with_carets() {
    let db = figure1_db();
    let sql = "SELECT deg, COUNT(*) FROM pol GROUP BY deg EXCEPT SELECT uid, deg FROM el";
    let r = db.lint(sql).unwrap();
    assert_eq!(r.codes(), vec![Code::X002, Code::X001, Code::X003]);
    let rendered = db.explain_lint(sql).unwrap();
    assert!(rendered.contains("X002 [error] at 1:44"), "{rendered}");
    // Caret run under EXCEPT: 43 spaces of padding, 6 carets.
    assert!(
        rendered.contains(&format!("  {}{}\n", " ".repeat(43), "^".repeat(6))),
        "{rendered}"
    );
    assert!(rendered.contains("1 error(s), 2 warning(s)"), "{rendered}");
}

/// W101 golden rendering: the operational SLO check is a dummy-span
/// diagnostic, so it renders without an excerpt — code, severity,
/// message, suggestion, nothing else.
#[test]
fn w101_golden_rendering() {
    let mut config = DbConfig::default();
    config.slo.max_trigger_lateness = 100;
    let mut db = Database::new(config);
    db.execute_script(
        "CREATE TABLE pol (uid INT, deg INT);
         INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
         INSERT INTO pol VALUES (2, 25) EXPIRES AT 20;",
    )
    .unwrap();
    let sql = "CREATE MATERIALIZED VIEW soon AS SELECT deg, COUNT(*) FROM pol GROUP BY deg";
    db.execute(sql).unwrap();
    let report = db.view_diagnostics("soon").unwrap();
    assert!(report.codes().contains(&Code::W101), "{:?}", report.codes());
    let rendered = exptime::lint::render(&report, sql);
    assert!(
        rendered.contains(
            "W101 [warning]: view refresh falls due in 10 tick(s), within the SLO's \
             tolerated trigger lateness of 100; a legally late trigger misses the \
             refresh window\n  = suggestion: tighten SloConfig::max_trigger_lateness, \
             switch to eager removal, or give the view's inputs longer expiration times\n"
        ),
        "{rendered}"
    );
    // Dummy spans never draw an excerpt/caret block: the W101 block runs
    // straight from message to suggestion to the next diagnostic.
    let block = rendered
        .split("W101")
        .nth(1)
        .unwrap()
        .split("X001")
        .next()
        .unwrap();
    assert!(!block.contains('^'), "{rendered}");
}

/// W102 golden rendering: a sliding-TTL base under a materialised view.
/// The view definition itself is monotone, so W102 is the *only*
/// diagnostic and the full rendered report is pinned exactly.
#[test]
fn w102_golden_rendering() {
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE s (k INT) TTL 30 SLIDING ON ACCESS")
        .unwrap();
    let sql = "CREATE MATERIALIZED VIEW mv AS SELECT k FROM s";
    db.execute(sql).unwrap();
    let report = db.view_diagnostics("mv").unwrap();
    assert_eq!(report.codes(), vec![Code::W102]);
    let rendered = exptime::lint::render(&report, sql);
    assert_eq!(
        rendered,
        "W102 [warning]: materialised view `mv` reads `s`, whose TTL policy slides: \
         every touch rewrites a base `texp`, so the monotone-expiration assumption \
         behind Theorems 1–3 no longer holds and each touched read forces a view \
         refresh\n  = suggestion: make `s`'s TTL absolute, or use a virtual \
         (non-materialised) view\n0 error(s), 1 warning(s)\n"
    );
}

/// The analyzer runs automatically at CREATE MATERIALIZED VIEW and the
/// diagnostics stay queryable from the catalog.
#[test]
fn create_materialized_view_records_the_golden_codes() {
    let mut db = figure1_db();
    db.execute("CREATE MATERIALIZED VIEW danger AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
        .unwrap();
    assert_eq!(
        db.view_diagnostics("danger").unwrap().codes(),
        vec![Code::X002]
    );
    db.execute("CREATE MATERIALIZED VIEW fine AS SELECT uid FROM pol WHERE deg >= 25")
        .unwrap();
    assert!(db.view_diagnostics("fine").unwrap().is_clean());
    assert_eq!(db.metrics().counter_value("lint.diagnostics"), 1);
}
