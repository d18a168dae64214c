//! Property tests for the observability layer: the metrics registry is a
//! faithful ledger of what the engine actually did, under arbitrary
//! interleavings of inserts, deletes, clock ticks, and queries.

mod common;

use common::schema2;
use exptime::core::tuple;
use exptime::engine::{Database, DbConfig, Removal};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Insert a fresh (never-reused) key with this TTL.
    Insert { v: i64, ttl: u64 },
    /// DELETE by key; matches zero or one live row.
    Delete { k: i64 },
    /// Advance the logical clock (eager removal expires due rows).
    Tick { d: u64 },
    /// A SELECT over the table, to exercise the query-side telemetry.
    Query,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (-5i64..5, 1u64..30).prop_map(|(v, ttl)| Op::Insert { v, ttl }),
        1 => (0i64..80).prop_map(|k| Op::Delete { k }),
        2 => (1u64..12).prop_map(|d| Op::Tick { d }),
        1 => Just(Op::Query),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Conservation: at every observed clock time, every row the engine
    /// ever accepted is accounted for exactly once —
    /// `inserts == live + deleted + expired`. Keys are unique per insert
    /// so duplicate-merge semantics cannot blur the ledger. The read side
    /// keeps a ledger too: every query is one counted scan of the table
    /// it names, and its `Base` leaf accounts for every physically
    /// present row — returned, or skipped as expired (non-zero between
    /// vacuums under lazy removal).
    #[test]
    fn inserted_rows_are_conserved(
        ops in proptest::collection::vec(arb_op(), 1..70),
        removal in prop_oneof![Just(Removal::Eager), Just(Removal::Lazy { vacuum_every: 1000 })],
    ) {
        let mut db = Database::new(DbConfig { removal, ..DbConfig::default() });
        db.create_table("t", schema2()).unwrap();
        let mut next_key = 0i64;

        for op in ops {
            match op {
                Op::Insert { v, ttl } => {
                    db.insert_ttl("t", tuple![next_key, v], ttl).unwrap();
                    next_key += 1;
                }
                Op::Delete { k } => {
                    db.execute(&format!("DELETE FROM t WHERE k = {k}")).unwrap();
                }
                Op::Tick { d } => {
                    db.tick(d);
                }
                Op::Query => {
                    let scans = db.metrics().counter_value("storage.t.scans");
                    let stored = db.table("t").unwrap().len() as u64;
                    let live = db.table("t").unwrap().live_count(db.now()) as u64;
                    let report = db.explain_analyze("SELECT k FROM t").unwrap();
                    let leaf = &report.profile.children[0];
                    prop_assert!(leaf.children.is_empty(), "π over a Base leaf: {}", report);
                    prop_assert_eq!(leaf.rows_out, live);
                    prop_assert_eq!(leaf.rows_out + leaf.expired_filtered, stored, "{}", report);
                    db.execute("SELECT k FROM t").unwrap();
                    prop_assert_eq!(db.metrics().counter_value("storage.t.scans"), scans + 2);
                }
            }

            let stats = db.stats();
            let live = db.table("t").unwrap().len() as u64;
            prop_assert_eq!(
                stats.inserts,
                live + stats.deletes + stats.expired,
                "inserts={} live={} deletes={} expired={} at {:?}",
                stats.inserts, live, stats.deletes, stats.expired, db.now()
            );
            // The public snapshot and the registry are the same ledger.
            let reg = db.metrics();
            prop_assert_eq!(reg.counter_value("db.inserts"), stats.inserts);
            prop_assert_eq!(reg.counter_value("db.deletes"), stats.deletes);
            prop_assert_eq!(reg.counter_value("db.expired"), stats.expired);
            prop_assert_eq!(reg.counter_value("db.queries"), stats.queries);
            // Single table, so the storage-level ledger must agree too.
            prop_assert_eq!(reg.counter_value("storage.t.inserts"), stats.inserts);
            prop_assert_eq!(reg.counter_value("storage.t.expired"), stats.expired);
        }
    }

    /// Latency histograms record exactly one sample per operation: the
    /// `db.query_ns` count equals the query counter and `db.insert_ns`
    /// equals the insert counter, whatever the interleaving.
    #[test]
    fn histogram_totals_match_operation_counts(
        ops in proptest::collection::vec(arb_op(), 1..70)
    ) {
        let mut db = Database::new(DbConfig::default());
        db.create_table("t", schema2()).unwrap();
        let mut next_key = 0i64;

        for op in ops {
            match op {
                Op::Insert { v, ttl } => {
                    db.insert_ttl("t", tuple![next_key, v], ttl).unwrap();
                    next_key += 1;
                }
                Op::Delete { k } => {
                    db.execute(&format!("DELETE FROM t WHERE k = {k}")).unwrap();
                }
                Op::Tick { d } => {
                    db.tick(d);
                }
                Op::Query => {
                    db.execute("SELECT k FROM t").unwrap();
                }
            }

            let stats = db.stats();
            for (name, snap) in db.metrics().histograms() {
                let expect = match name.as_str() {
                    "db.query_ns" => stats.queries,
                    "db.insert_ns" => stats.inserts,
                    // SLO histograms are fed by the staleness monitor, not
                    // by per-operation counters; this table has no views
                    // and eager removal fires triggers on time, so only
                    // internal consistency is checked below.
                    "slo.trigger_lateness_ticks" | "slo.refresh_ns" | "slo.resync_lag_ticks" => {
                        snap.count
                    }
                    other => {
                        prop_assert!(false, "unexpected histogram {}", other);
                        unreachable!()
                    }
                };
                prop_assert_eq!(snap.count, expect, "{}", name);
                // Bucket totals are internally consistent with the count.
                let bucketed: u64 = snap.buckets.iter().sum();
                prop_assert_eq!(bucketed, snap.count, "{} buckets", name);
            }
        }
    }
}
