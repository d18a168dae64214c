//! Property tests for materialised-view maintenance and Theorem 3
//! patching: a view read at any instant must equal a fresh evaluation,
//! whatever combination of refresh/removal policies is in effect, and a
//! patched difference must never recompute.

mod common;

use common::{arb_catalog, arb_expr, arb_overlapping_catalog, probe_times};
use exptime::core::aggregate::AggMode;
use exptime::core::algebra::{eval, ops, EvalOptions, Expr};
use exptime::core::materialize::{MaterializedView, RefreshPolicy, RemovalPolicy};
use exptime::core::patch::PatchQueue;
use exptime::core::schrodinger::{self, AnswerKind, QueryPolicy};
use exptime::core::time::Time;
use exptime::prelude::{Database, ReadOutcome, Replica};
use exptime::replica::{ChaosReadOutcome, ChaosReplica, FaultSpec, RetryPolicy};
use exptime_net::StaleCache;
use proptest::prelude::*;

/// Every way a materialisation can be asked for: the aggregate expiration
/// mode, a Theorem 3 queue at the root (whole or capped), either validity.
fn arb_eval_options() -> impl Strategy<Value = EvalOptions> {
    let agg_mode = prop_oneof![
        Just(AggMode::Naive),
        Just(AggMode::Contributing),
        Just(AggMode::Exact),
    ];
    let cap = proptest::option::of(0usize..3);
    (agg_mode, any::<bool>(), cap, any::<bool>()).prop_map(
        |(agg_mode, patch_root_difference, patch_queue_cap, eq12_validity)| EvalOptions {
            agg_mode,
            patch_root_difference,
            patch_queue_cap,
            eq12_validity,
        },
    )
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
        catalog in arb_catalog(12),
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
    fn patched_root_difference_never_recomputes(catalog in arb_catalog(12)) {
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

    /// Theorem 3 at the queue level, including the expiration times of the
    /// patched tuples: the patched materialisation equals recomputation
    /// with texps at every instant (set_eq, not just tuple equality).
    #[test]
    fn patch_queue_matches_recomputation_with_texps(catalog in arb_catalog(12)) {
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
        patch_root_difference in any::<bool>(),
        patch_queue_cap in proptest::option::of(0usize..3),
    ) {
        let opts = EvalOptions { patch_root_difference, patch_queue_cap, ..EvalOptions::default() };
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
    /// does. And a `Replica` beside a `ChaosReplica`, subscribed to one
    /// server at the same instant and then cut off from it, read alike at
    /// every tick.
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

        let mut server = Database::default();
        for name in ["r", "s"] {
            server.execute(&format!("CREATE TABLE {name} (k INT, v INT)")).unwrap();
            for (tuple, texp) in catalog.get(name)?.iter() {
                server.insert(name, tuple.clone(), texp).unwrap();
            }
        }
        let mut plain = Replica::new(RefreshPolicy::Recompute);
        let mut chaos = ChaosReplica::new(FaultSpec::none(1), RetryPolicy::default());
        plain.subscribe("v", expr.clone(), &server).unwrap();
        chaos.subscribe("v", expr.clone(), &server).unwrap();
        plain.link().disconnect();
        chaos.link().link().disconnect();
        for _ in 0..45 {
            let now = server.tick(1);
            let plain_served = match plain.read("v", &server).unwrap() {
                (rows, ReadOutcome::Local) => Some((rows, now)),
                (rows, ReadOutcome::Stale(back)) => Some((rows, back)),
                (_, ReadOutcome::Unavailable) => None,
                (_, ReadOutcome::Refreshed) => panic!("refreshed over a dead link"),
            };
            let chaos_served = match chaos.read("v", &server) {
                Ok((rows, ChaosReadOutcome::Local)) => Some((rows, now)),
                Ok((rows, ChaosReadOutcome::Stale(back))) => Some((rows, back)),
                Ok((_, ChaosReadOutcome::Synced)) => panic!("synced over a dead link"),
                Err(_) => None,
            };
            match (plain_served, chaos_served) {
                (Some((a, a_as_of)), Some((b, b_as_of))) => {
                    prop_assert_eq!(a_as_of, b_as_of, "{expr} at {now}");
                    prop_assert!(a.set_eq(&b), "{expr} at {now}:\n{a:?}\nvs {b:?}");
                }
                (a, b) => prop_assert_eq!(a.is_some(), b.is_some(), "{expr} at {now}"),
            }
        }
    }

    /// Vacuuming (lazy physical removal) never changes what reads observe.
    #[test]
    fn vacuum_is_observationally_neutral(
        catalog in arb_catalog(12),
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
