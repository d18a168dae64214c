//! Property tests for the soundness lattice: the analyzer's static
//! verdicts must agree with what the maintenance machinery actually does.
//! `Sound(∞)` is a *promise* — a plan classified monotonic with an
//! infinite static bound must never produce a stale materialised view and
//! must never recompute.

mod common;

use common::{arb_expr, arb_overlapping_catalog, probe_times};
use exptime::core::algebra::{eval, EvalOptions};
use exptime::core::materialize::{MaterializedView, RefreshPolicy, RemovalPolicy};
use exptime::core::rewrite::{rewrite, Monotonicity, StaticBound, TickBound};
use exptime::core::time::Time;
use exptime::engine::{Database, DbConfig};
use exptime::lint::BoundBasis;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole promise: a plan the analyzer calls `Sound(∞)` never
    /// serves a stale read and never recomputes, at any probe instant.
    #[test]
    fn sound_infinite_plans_never_go_stale(
        catalog in arb_overlapping_catalog(12),
        expr in arb_expr(),
    ) {
        let s = expr.soundness();
        prop_assume!(s.is_sound_infinite());
        let mut view = MaterializedView::new(
            expr.clone(),
            &catalog,
            Time::ZERO,
            EvalOptions::default(),
            RefreshPolicy::Recompute,
            RemovalPolicy::Lazy,
        )?;
        for tau in probe_times(&catalog) {
            let seen = view.read(&catalog, tau)?;
            let fresh = eval(&expr, &catalog, tau, &EvalOptions::default())?;
            prop_assert!(
                seen.set_eq(&fresh.rel.exp(tau)),
                "stale Sound(∞) view at {tau}: {expr}"
            );
        }
        prop_assert_eq!(view.stats().recomputations, 0, "Sound(∞) recomputed: {}", expr);
    }

    /// The lattice agrees with the operator census: a plan is monotonic
    /// iff it contains no difference or aggregate, and then (and only
    /// then) its static bound is infinite.
    #[test]
    fn soundness_classification_matches_structure(expr in arb_expr()) {
        let s = expr.soundness();
        prop_assert_eq!(
            s.monotonicity == Monotonicity::Monotonic,
            s.non_monotonic_count == 0
        );
        prop_assert_eq!(
            s.bound == StaticBound::Infinite,
            s.non_monotonic_count == 0
        );
        prop_assert_eq!(s.is_sound_infinite(), expr.is_monotonic());
    }

    /// The pull-up rewrite never makes a plan less sound: the rewritten
    /// plan's monotonicity class is never above (worse than) the original
    /// in the lattice, and the non-monotonic operator census is unchanged.
    #[test]
    fn rewrite_never_worsens_soundness(expr in arb_expr()) {
        let before = expr.soundness();
        let after = rewrite(&expr).soundness();
        prop_assert!(
            after.monotonicity <= before.monotonicity,
            "rewrite worsened {} -> {}", before.monotonicity, after.monotonicity
        );
        prop_assert_eq!(after.non_monotonic_count, before.non_monotonic_count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole-database audit's promise: the observed staleness of a
    /// materialised view never exceeds the static bound `EXPLAIN AUDIT`
    /// derived for it, across random TTL policies (clamped or not,
    /// sliding or absolute), random writes with arbitrary explicit
    /// expirations, and random clock advances. Enforced (Proven/Exact)
    /// bounds are watched by the SLO monitor on every tick — zero
    /// `audit_violations` means no artifact ever outlived its bound.
    #[test]
    fn observed_staleness_never_exceeds_the_audit_bound(
        ttl in 1u64..40,
        clamp in proptest::option::of((0u64..6, 1u64..50)),
        sliding in any::<bool>(),
        seed_rows in proptest::collection::vec((0i64..8, proptest::option::of(1u64..200)), 1..10),
        advances in proptest::collection::vec((1u64..10, 0i64..8, proptest::option::of(1u64..200)), 1..8),
    ) {
        let mut ddl = format!("CREATE TABLE t (k INT) TTL {ttl}");
        if sliding {
            ddl.push_str(" SLIDING ON ACCESS");
        }
        if let Some((min, width)) = clamp {
            ddl.push_str(&format!(" CLAMP {min}..{}", min + width));
        }
        let mut db = Database::new(DbConfig::default());
        db.execute(&ddl).unwrap();
        db.execute("CREATE MATERIALIZED VIEW agg AS SELECT k, COUNT(*) FROM t GROUP BY k")
            .unwrap();
        db.execute("CREATE MATERIALIZED VIEW mono AS SELECT k FROM t WHERE k >= 0")
            .unwrap();
        for (k, exp) in &seed_rows {
            let mut sql = format!("INSERT INTO t VALUES ({k})");
            if let Some(e) = exp {
                sql.push_str(&format!(" EXPIRES IN {e} TICKS"));
            }
            db.execute(&sql).unwrap();
        }

        let report = db.audit();
        let agg = report.views.iter().find(|v| v.name == "agg").unwrap();
        let mono = report.views.iter().find(|v| v.name == "mono").unwrap();
        // Theorem 1: the monotone view is eternal — zero staleness, exact.
        prop_assert_eq!(mono.bound, TickBound::ZERO);
        prop_assert_eq!(mono.basis, BoundBasis::Exact);
        // A clamp makes the non-monotone view's bound provable (and
        // therefore enforced); without one, explicit EXPIRES can exceed
        // the declared TTL, so the basis degrades to Declared.
        prop_assert!(matches!(agg.bound, TickBound::Finite(_)), "{:?}", agg.bound);
        if clamp.is_some() {
            prop_assert_eq!(agg.basis, BoundBasis::Proven);
        }
        let gauge = db.metrics().gauge_value("view.agg.staleness_bound");
        prop_assert_eq!(Some(gauge as u64), agg.bound.finite());

        // Random life after the audit: more writes (all routed through
        // the policy), reads (touches, under sliding), clock advances.
        // The monitor re-checks every enforced bound on each tick.
        for (dt, k, exp) in &advances {
            let mut sql = format!("INSERT INTO t VALUES ({k})");
            if let Some(e) = exp {
                sql.push_str(&format!(" EXPIRES IN {e} TICKS"));
            }
            db.execute(&sql).unwrap();
            db.execute("SELECT * FROM t").unwrap();
            db.execute("SELECT * FROM agg").unwrap();
            db.tick(*dt);
        }
        prop_assert_eq!(db.health().audit_violations, 0);

        // Re-auditing at the later instant still proves a finite bound
        // for every view (live rows were all written under the policy).
        let again = db.audit();
        for v in &again.views {
            prop_assert!(
                matches!(v.bound, TickBound::Finite(_)),
                "{}: {:?}", v.name, v.bound
            );
        }
        prop_assert_eq!(db.health().audit_violations, 0);
    }
}
