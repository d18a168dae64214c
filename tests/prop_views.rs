//! Property tests for materialised-view maintenance and Theorem 3
//! patching: a view read at any instant must equal a fresh evaluation,
//! whatever combination of refresh/removal policies is in effect, and a
//! patched difference or aggregation must never recompute.

mod common;

use common::{arb_expr, arb_overlapping_catalog, probe_times};
use exptime::core::aggregate::{AggFunc, AggMode};
use exptime::core::algebra::{eval, EvalOptions, Expr};
use exptime::core::catalog::Catalog;
use exptime::core::materialize::{MaterializedView, RefreshPolicy, RemovalPolicy};
use exptime::core::patch::PatchQueue;
use exptime::core::relation::Relation;
use exptime::core::schema::Schema;
use exptime::core::schrodinger::{self, AnswerKind, QueryPolicy};
use exptime::core::time::Time;
use exptime::core::tuple::Tuple;
use exptime::core::value::{Value, ValueType};
use exptime::prelude::{Database, ReadOutcome, Replica};
use exptime_literal::ops;
use exptime_net::StaleCache;
use proptest::prelude::*;

/// Every way a materialisation can be asked for: the aggregate expiration
/// mode, and a Theorem 3 queue at the root (whole or capped).
fn arb_eval_options() -> impl Strategy<Value = EvalOptions> {
    let agg_mode = prop_oneof![
        Just(AggMode::Naive),
        Just(AggMode::Contributing),
        Just(AggMode::Exact),
    ];
    let cap = proptest::option::of(0usize..3);
    (agg_mode, any::<bool>(), cap).prop_map(|(agg_mode, patch_root, patch_queue_cap)| EvalOptions {
        agg_mode,
        patch_root,
        patch_queue_cap,
    })
}

/// A relation `r (k INT, v INT|FLOAT)` whose rows fall in three groups
/// by `k`, several rows a group, some of them immortal. FLOAT values are
/// halves: every sum of them is exact, so a FLOAT group's value is the
/// same whatever survivors it is folded from, as the contributing rule's
/// neutrality presumes.
fn arb_grouped_catalog() -> impl Strategy<Value = Catalog> {
    let texp = prop_oneof![5 => (1u64..40).prop_map(Time::new), 1 => Just(Time::INFINITY)];
    let rows = proptest::collection::vec((0i64..3, -4i64..8, texp), 1..16);
    (rows, any::<bool>()).prop_map(|(rows, float)| {
        let ty = if float {
            ValueType::Float
        } else {
            ValueType::Int
        };
        let mut r = Relation::new(Schema::of(&[("k", ValueType::Int), ("v", ty)]));
        for (k, v, e) in rows {
            let v = if float {
                Value::float(v as f64 / 2.0)
            } else {
                Value::Int(v)
            };
            r.insert(Tuple::new(vec![Value::Int(k), v]), e)
                .expect("typed");
        }
        let mut c = Catalog::new();
        c.register("r", r);
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The central contract: a maintained view equals a fresh evaluation
    /// at every probe instant, under every policy combination AND every
    /// aggregate expiration mode (the conservative modes shorten tuple
    /// lifetimes, which the expression metadata must track so the view
    /// recomputes exactly when rows would go missing).
    #[test]
    fn view_reads_equal_fresh_evaluation(
        catalog in arb_overlapping_catalog(12),
        expr in arb_expr(),
        refresh in prop_oneof![Just(RefreshPolicy::Recompute), Just(RefreshPolicy::Patch)],
        removal in prop_oneof![Just(RemovalPolicy::Eager), Just(RemovalPolicy::Lazy)],
        agg_mode in prop_oneof![
            Just(exptime::core::aggregate::AggMode::Naive),
            Just(exptime::core::aggregate::AggMode::Contributing),
            Just(exptime::core::aggregate::AggMode::Exact),
        ],
    ) {
        let opts = EvalOptions { agg_mode, ..EvalOptions::default() };
        let mut view = MaterializedView::new(
            expr.clone(), &catalog, Time::ZERO, opts, refresh, removal,
        )?;
        for tau in probe_times(&catalog) {
            let got = view.read(&catalog, tau)?;
            let fresh = eval(&expr, &catalog, tau, &opts)?;
            prop_assert!(
                got.set_eq(&fresh.rel.exp(tau)),
                "view diverges for {expr} at {tau} under {refresh:?}/{removal:?}/{agg_mode:?}:\n{got:?}\nvs {:?}",
                fresh.rel.exp(tau)
            );
        }
        if expr.is_monotonic() {
            prop_assert_eq!(view.stats().recomputations, 0, "Theorem 1");
        }
    }

    /// Theorem 3 at the view level: a root difference with patching never
    /// recomputes, at any probe instant.
    #[test]
    fn patched_root_difference_never_recomputes(catalog in arb_overlapping_catalog(12)) {
        let expr = Expr::base("r").difference(Expr::base("s"));
        let mut view = MaterializedView::new(
            expr.clone(), &catalog, Time::ZERO, EvalOptions::default(),
            RefreshPolicy::Patch, RemovalPolicy::Lazy,
        )?;
        for tau in probe_times(&catalog) {
            let got = view.read(&catalog, tau)?;
            let fresh = eval(&expr, &catalog, tau, &EvalOptions::default())?;
            prop_assert!(got.set_eq(&fresh.rel.exp(tau)), "at {tau}");
        }
        prop_assert_eq!(view.stats().recomputations, 0, "Theorem 3");
    }

    /// Theorem 3 for an aggregation: a patched root `γ` — Klug rows, or a
    /// `GROUP BY` row per group — recomputes each group from its own rows
    /// as its value changes, and never the view. At every probe instant,
    /// under every function, mode and removal, over INT and FLOAT values,
    /// the view equals a fresh evaluation, expiration times included; it
    /// stores no more rows than the materialisation had (a group's
    /// previous rows go as it is recomputed); and the unmaintained
    /// materialisation answers the same at every instant, in any order.
    #[test]
    fn patched_root_aggregate_never_recomputes(
        catalog in arb_grouped_catalog(),
        f in prop_oneof![
            Just(AggFunc::Count),
            Just(AggFunc::Sum(1)),
            Just(AggFunc::Avg(1)),
            Just(AggFunc::Min(1)),
            Just(AggFunc::Max(1)),
        ],
        agg_mode in prop_oneof![
            Just(AggMode::Naive),
            Just(AggMode::Contributing),
            Just(AggMode::Exact),
        ],
        group_by_row in any::<bool>(),
        removal in prop_oneof![Just(RemovalPolicy::Eager), Just(RemovalPolicy::Lazy)],
    ) {
        let klug = Expr::base("r").aggregate([0], f);
        let expr = if group_by_row { klug.project([0, 2]) } else { klug };
        let opts = EvalOptions { agg_mode, ..EvalOptions::default() };
        let mut view = MaterializedView::new(
            expr.clone(), &catalog, Time::ZERO, opts, RefreshPolicy::Patch, removal,
        )?;
        prop_assert_eq!(view.texp(), Time::INFINITY, "{}", expr);
        let input = catalog.get("r")?.exp(Time::ZERO);
        let bound = if group_by_row {
            input.iter().map(|(t, _)| t.attr(0).clone()).collect::<std::collections::BTreeSet<_>>().len()
        } else {
            input.len()
        };
        prop_assert!(view.stored_len() <= bound);
        let unmaintained = view.materialized().clone();
        let times = probe_times(&catalog);
        for &tau in &times {
            let got = view.read(&catalog, tau)?;
            let fresh = eval(&expr, &catalog, tau, &opts)?.rel.exp(tau);
            prop_assert!(
                got.set_eq(&fresh),
                "{expr} {agg_mode:?} {removal:?} at {tau}:\n{got:?}\nvs {fresh:?}"
            );
            prop_assert!(view.stored_len() <= bound, "{expr} stores {} > {bound} at {tau}", view.stored_len());
        }
        prop_assert_eq!(view.stats().recomputations, 0, "Theorem 3: {}", expr);
        for &tau in times.iter().rev() {
            let fresh = eval(&expr, &catalog, tau, &opts)?.rel.exp(tau);
            prop_assert!(unmaintained.rows_at(tau).set_eq(&fresh), "{expr} unmaintained at {tau}");
        }
    }

    /// Theorem 3 at the queue level, including the expiration times of the
    /// patched tuples: the patched materialisation equals recomputation
    /// with texps at every instant (set_eq, not just tuple equality).
    #[test]
    fn patch_queue_matches_recomputation_with_texps(catalog in arb_overlapping_catalog(12)) {
        let r = catalog.get("r")?;
        let s = catalog.get("s")?;
        let mut materialised = ops::difference(r, s, Time::ZERO)?;
        let mut queue = PatchQueue::from_critical(ops::critical_tuples(r, s, Time::ZERO));
        let bound = queue.len();
        prop_assert!(bound <= r.iter().filter(|(t, _)| s.contains(t)).count(),
            "queue ≤ |R ∩ S|");
        for tau in probe_times(&catalog) {
            queue.apply_due(&mut materialised, tau);
            let fresh = ops::difference(r, s, tau)?;
            prop_assert!(
                materialised.set_eq_at(&fresh, tau),
                "at {tau}: {materialised:?}\nvs {fresh:?}"
            );
        }
    }

    /// Schrödinger query answering never returns a wrong relation: under
    /// every policy, if an answer is produced for time τ (not refused and
    /// not moved), it equals the fresh evaluation at its `as_of` time —
    /// also when the materialisation is a patched root difference, whose
    /// rows alone are not its result (Theorem 3) and whose queue may be
    /// capped, and also when a query moved forward is followed by one for
    /// an earlier instant, which a read that drained the queue would
    /// answer wrongly.
    #[test]
    fn schrodinger_answers_are_correct_for_their_as_of(
        catalog in arb_overlapping_catalog(12),
        expr in arb_expr(),
        policy in prop_oneof![
            Just(QueryPolicy::Recompute),
            Just(QueryPolicy::MoveBackward { max_drift: 5 }),
            Just(QueryPolicy::MoveForward { max_delay: 5 }),
        ],
        patch_root in any::<bool>(),
        patch_queue_cap in proptest::option::of(0usize..3),
    ) {
        let opts = EvalOptions { patch_root, patch_queue_cap, ..EvalOptions::default() };
        let m = eval(&expr, &catalog, Time::ZERO, &opts)?;
        for tau in probe_times(&catalog) {
            let ans = schrodinger::answer(&m, &expr, &catalog, tau, policy, &opts)?;
            let fresh = eval(&expr, &catalog, ans.as_of, &EvalOptions::default())?;
            prop_assert!(
                ans.rel.tuples_eq_at(&fresh.rel, ans.as_of),
                "{expr}: answer at {tau} (as_of {}) is wrong under {policy:?}",
                ans.as_of
            );
            // Drift bounds are honoured.
            match policy {
                QueryPolicy::MoveBackward { max_drift } => {
                    if let (Some(a), Some(q)) = (ans.as_of.finite(), tau.finite()) {
                        prop_assert!(q.saturating_sub(a) <= max_drift);
                    }
                }
                QueryPolicy::MoveForward { max_delay } => {
                    if let (Some(a), Some(q)) = (ans.as_of.finite(), tau.finite()) {
                        prop_assert!(a.saturating_sub(q) <= max_delay);
                    }
                }
                _ => prop_assert_eq!(ans.as_of, tau),
            }
        }
    }

    /// Whoever holds a materialisation serves it the same way. Hand one
    /// `Materialized` to `Materialized::answer`, to Schrödinger answering
    /// with an unbounded move backward and to the degraded-read cache:
    /// all three serve the same rows as of the same instant, or none
    /// does. And a `Replica` subscribed to a server and then cut off from
    /// it serves, at every tick, what `Materialized::answer` of the
    /// subscribe instant's evaluation does.
    #[test]
    fn holders_of_one_materialisation_agree(
        catalog in arb_overlapping_catalog(12),
        expr in arb_expr(),
        opts in arb_eval_options(),
    ) {
        let m = eval(&expr, &catalog, Time::ZERO, &opts)?;
        let mut cache = StaleCache::new();
        let anywhen = QueryPolicy::MoveBackward { max_drift: u64::MAX };
        for tau in probe_times(&catalog) {
            let kernel = m.answer(tau);
            let moved = schrodinger::answer(&m, &expr, &catalog, tau, anywhen, &opts)?;
            // An entry that cannot serve is dropped: cache it again.
            cache.insert("q", m.clone());
            let cached = cache.serve("q", tau);
            let Some((rows, as_of)) = kernel else {
                prop_assert_eq!(moved.kind, AnswerKind::Recomputed, "{expr} at {tau}");
                prop_assert!(cached.is_none(), "{expr} at {tau}");
                continue;
            };
            prop_assert_ne!(moved.kind, AnswerKind::Recomputed, "{expr} at {tau}");
            prop_assert_eq!(moved.as_of, as_of, "{expr} at {tau}");
            prop_assert!(moved.rel.set_eq(&rows), "{expr} at {tau}:\n{:?}\nvs {rows:?}", moved.rel);
            let cached = cached.expect("the kernel serves, so the cache does");
            prop_assert_eq!((cached.as_of, cached.stale), (as_of, as_of < tau), "{expr} at {tau}");
            prop_assert!(cached.rel.set_eq(&rows), "{expr} at {tau}:\n{:?}\nvs {rows:?}", cached.rel);
        }

        // A replica cut off right after it subscribes serves what the
        // subscription shipped: the materialisation taken at that instant
        // with the replica's options, answered for every later tick.
        for refresh in [RefreshPolicy::Recompute, RefreshPolicy::Patch] {
            let mut server = Database::default();
            for name in ["r", "s"] {
                server.execute(&format!("CREATE TABLE {name} (k INT, v INT)")).unwrap();
                for (tuple, texp) in catalog.get(name)?.iter() {
                    server.insert(name, tuple.clone(), texp).unwrap();
                }
            }
            let opts = EvalOptions {
                patch_root: refresh == RefreshPolicy::Patch,
                ..EvalOptions::default()
            };
            let shipped = eval(&expr, &server, server.now(), &opts)?;
            let mut replica = Replica::new(refresh);
            replica.subscribe("v", expr.clone(), &server).unwrap();
            replica.link().disconnect();
            for _ in 0..45 {
                let now = server.tick(1);
                let served = match replica.read("v", &server) {
                    Ok((rows, ReadOutcome::Local)) => Some((rows, now)),
                    Ok((rows, ReadOutcome::Stale(back))) => Some((rows, back)),
                    Ok((_, ReadOutcome::Refreshed)) => panic!("refreshed over a dead link"),
                    Err(_) => None,
                };
                match (served, shipped.answer(now)) {
                    (Some((a, a_as_of)), Some((b, b_as_of))) => {
                        prop_assert_eq!(a_as_of, b_as_of, "{expr} {refresh:?} at {now}");
                        prop_assert!(a.set_eq(&b), "{expr} {refresh:?} at {now}:\n{a:?}\nvs {b:?}");
                    }
                    (a, b) => prop_assert_eq!(a.is_some(), b.is_some(), "{expr} {refresh:?} at {now}"),
                }
            }
        }
    }

    /// Vacuuming (lazy physical removal) never changes what reads observe.
    #[test]
    fn vacuum_is_observationally_neutral(
        catalog in arb_overlapping_catalog(12),
        expr in arb_expr(),
        vacuum_at in 0u64..40,
    ) {
        let mut with_vacuum = MaterializedView::with_defaults(expr.clone(), &catalog, Time::ZERO)?;
        let mut without = MaterializedView::with_defaults(expr, &catalog, Time::ZERO)?;
        let vacuum_at = Time::new(vacuum_at);
        for tau in probe_times(&catalog) {
            if tau >= vacuum_at {
                with_vacuum.vacuum(vacuum_at);
            }
            let a = with_vacuum.read(&catalog, tau)?;
            let b = without.read(&catalog, tau)?;
            prop_assert!(a.set_eq(&b), "vacuum changed observable state at {tau}");
        }
    }
}
